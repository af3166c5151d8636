/**
 * @file
 * Shared helpers for the figure/table reproduction drivers.
 *
 * Each bench binary regenerates one table or figure from the paper:
 * it runs the relevant (workload x treatment) cells through the
 * experiment driver and prints the same rows/series the paper
 * reports, alongside the paper's numbers where useful. Absolute
 * values differ from the paper's Haswell testbed -- the shape is
 * what is reproduced (see EXPERIMENTS.md).
 */

#ifndef TMI_BENCH_BENCH_UTIL_HH
#define TMI_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse_number.hh"
#include "core/config.hh"
#include "core/experiment.hh"
#include "driver/runner.hh"
#include "workloads/workload.hh"

namespace tmi::bench
{

/** Environment variable @p name as a number, or @p fallback when
 *  unset. Anything but a whole in-range number exits 2 naming the
 *  variable, rather than running some other experiment. */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    std::uint64_t value = 0;
    std::string err;
    if (!parseNumber(std::string_view(env), value, err)) {
        std::fprintf(stderr, "%s: %s\n", name, err.c_str());
        std::exit(2);
    }
    return value;
}

/** Scale factor for bench runs (env TMI_BENCH_SCALE overrides). */
inline std::uint64_t
benchScale(std::uint64_t fallback = 4)
{
    return envU64("TMI_BENCH_SCALE", fallback);
}

/** Default experiment config for bench runs. */
inline ExperimentConfig
benchConfig(const std::string &workload, Treatment treatment,
            std::uint64_t scale)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.treatment = treatment;
    cfg.threads = 4;
    cfg.scale = scale;
    cfg.analysisInterval = 500'000;
    cfg.budget = 60'000'000'000ULL;
    return cfg;
}

/** The same defaults as a fluent builder; drivers chain their
 *  per-figure knobs on top (.perfPeriod(...), .fault(...), ...). */
inline ExperimentBuilder
benchBuilder(const std::string &workload, Treatment treatment,
             std::uint64_t scale)
{
    Config base;
    base.run = benchConfig(workload, treatment, scale);
    return Experiment::builder(base);
}

/** All workloads in the Figure 7/8/10 overhead set, paper order. */
inline std::vector<std::string>
overheadSet()
{
    std::vector<std::string> names;
    for (const auto &info : workloadRegistry()) {
        if (info.inOverheadSet)
            names.push_back(info.name);
    }
    return names;
}

/** The Figure 9 / Table 3 false sharing set, paper order. */
inline std::vector<std::string>
falseSharingSet()
{
    std::vector<std::string> names;
    for (const auto &info : workloadRegistry()) {
        if (info.knownFalseSharing)
            names.push_back(info.name);
    }
    return names;
}

/** Geometric mean of a nonempty vector. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Print a separator + header for a bench section. */
inline void
header(const char *title)
{
    std::printf("\n==== %s ====\n", title);
}

/**
 * Optional machine-readable sink next to the human tables: when the
 * TMI_BENCH_CSV env var names a file, every row() lands there too.
 * Silently inert otherwise, so drivers call it unconditionally.
 */
class CsvSink
{
  public:
    explicit CsvSink(const char *header_line)
    {
        if (const char *path = std::getenv("TMI_BENCH_CSV")) {
            _f = std::fopen(path, "w");
            if (_f)
                std::fprintf(_f, "%s\n", header_line);
        }
    }

    ~CsvSink()
    {
        if (_f)
            std::fclose(_f);
    }

    CsvSink(const CsvSink &) = delete;
    CsvSink &operator=(const CsvSink &) = delete;

    explicit operator bool() const { return _f != nullptr; }

    void
    row(const char *fmt, ...)
    {
        if (!_f)
            return;
        va_list args;
        va_start(args, fmt);
        std::vfprintf(_f, fmt, args);
        va_end(args);
        std::fputc('\n', _f);
    }

  private:
    std::FILE *_f = nullptr;
};

/** A pthreads baseline plus treated runs for one workload. */
struct TreatmentRow
{
    RunResult base;
    std::vector<RunResult> treated; //!< parallel to the request
};

/** Sweep workers for bench runs (env TMI_BENCH_WORKERS overrides).
 *  Defaults to 1: serial, and therefore bit-for-bit the historical
 *  bench output order. The sweep driver delivers results in job-id
 *  order either way, so raising it only changes wall-clock time. */
inline unsigned
benchWorkers()
{
    if (const char *env = std::getenv("TMI_BENCH_WORKERS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return 1;
}

/**
 * Every (workload x treatment) cell of a figure as one job matrix
 * through the sweep driver, with TMI_BENCH_WORKERS host threads, the
 * pthreads baseline first per row. Runs in two phases because the
 * sheriff budget is derived from each workload's measured pthreads
 * baseline: phase 1 is all baselines, phase 2 all treated cells.
 * Row i corresponds to workloads[i]; treated[j] to treatments[j].
 */
inline std::vector<TreatmentRow>
runTreatmentMatrix(const std::vector<std::string> &workloads,
                   const std::vector<Treatment> &treatments,
                   std::uint64_t scale,
                   Cycles sheriff_budget_factor = 25,
                   const std::function<void(ExperimentBuilder &)> &tweak =
                       {})
{
    driver::RunnerOptions opts;
    opts.workers = benchWorkers();
    driver::Runner runner(opts);

    auto cell = [&](const std::string &workload, Treatment t,
                    Cycles budget) {
        ExperimentBuilder b = benchBuilder(workload, t, scale);
        if (budget)
            b.budget(budget);
        if (tweak)
            tweak(b);
        driver::Job job;
        job.config = b.peek();
        return job;
    };

    std::vector<driver::Job> base_jobs;
    for (const std::string &w : workloads)
        base_jobs.push_back(cell(w, Treatment::Pthreads, 0));
    std::vector<driver::JobResult> bases =
        runner.run(std::move(base_jobs));

    std::vector<driver::Job> treated_jobs;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        for (Treatment t : treatments) {
            Cycles budget = 0;
            if (t == Treatment::SheriffDetect ||
                t == Treatment::SheriffProtect) {
                budget = bases[i].run.cycles * sheriff_budget_factor;
            }
            treated_jobs.push_back(cell(workloads[i], t, budget));
        }
    }
    std::vector<driver::JobResult> treated =
        runner.run(std::move(treated_jobs));

    std::vector<TreatmentRow> rows(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        rows[i].base = bases[i].run;
        for (std::size_t j = 0; j < treatments.size(); ++j)
            rows[i].treated.push_back(
                treated[i * treatments.size() + j].run);
    }
    return rows;
}

} // namespace tmi::bench

#endif // TMI_BENCH_BENCH_UTIL_HH
