/**
 * @file
 * perfbench-runner: time one job matrix closed-loop on one host thread.
 *
 *   perfbench-runner --spec FILE --seed N --seconds S [--traced]
 *                    [--spans-out FILE]
 *
 * The matrix is a tmi-sweep spec (workloads x treatments at one
 * scale). Jobs run one after another through runExperiment, in
 * expansion order, in whole passes over the matrix until the time
 * budget is spent. Each job is timed in the thread's CPU time and
 * followed by a fixed calibration kernel, whose time tells how fast
 * the shared host ran during that pass. The run prints one JSON
 * document of raw measurements on stdout; perfbench/metrics.py turns
 * it into metrics.
 *
 * --traced adds the per-layer capture: a stats pass (dumpStats on),
 * a timing probe for each runtime the matrix lacks, and the capture and
 * replay of every pthreads job (layers.hh). Its timed passes get 40% of
 * the budget.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "core/config.hh"
#include "driver/sweep.hh"
#include "layers.hh"

using namespace tmi;
using perfbench::SpanLog;

namespace
{

/** Treatments whose host cost the traced run always reports. */
const std::vector<Treatment> runtimeTreatments = {
    Treatment::Pthreads,       Treatment::TmiProtect,
    Treatment::Laser,          Treatment::SheriffProtect,
    Treatment::HuronStatic,    Treatment::HtmElide,
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "perfbench-runner: %s\n", msg.c_str());
    std::exit(2);
}

const char *
outcomeName(RunOutcome o)
{
    switch (o) {
      case RunOutcome::Completed:
        return "completed";
      case RunOutcome::Timeout:
        return "timeout";
      case RunOutcome::Deadlock:
        return "deadlock";
    }
    return "?";
}

/** The simulated fingerprint a job must reproduce exactly. */
std::string
fingerprint(const RunResult &r)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "outcome=%s valid=%d cycles=%" PRIu64
                  " hitm=%" PRIu64 " pebs=%" PRIu64 " commits=%" PRIu64
                  " digest=%016" PRIx64 " p99=%.17g txn=%" PRIu64
                  "/%" PRIu64,
                  outcomeName(r.outcome), r.valid ? 1 : 0, r.cycles,
                  r.hitmEvents, r.pebsRecords, r.commits, r.resultDigest,
                  r.sojournP99, r.txnCommits, r.txnAborts);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Write @p values as a JSON array (strings quoted). */
template <typename T>
void
writeList(std::ostream &os, const std::vector<T> &values)
{
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i ? ", " : "");
        if constexpr (std::is_same_v<T, std::string>)
            os << quoted(values[i]);
        else
            os << values[i];
    }
    os << "]";
}

/** Parse the spec and expand it, with the benchmark's seed. */
std::vector<driver::Job>
loadJobs(const std::string &path, std::uint64_t seed)
{
    std::ifstream is(path);
    if (!is)
        usage("cannot read spec '" + path + "'");
    std::ostringstream text;
    text << is.rdbuf();
    driver::SweepSpec spec;
    std::string err;
    if (!driver::parseSpecText(spec, text.str(), err))
        usage(path + ": " + err);
    if (!spec.seeds.empty())
        usage(path + ": the seed comes from --seed, not the spec");
    spec.base.run.seed = seed;
    for (const ConfigError &e : spec.validate())
        usage(path + ": " + e.field + ": " + e.message);
    std::vector<driver::Job> jobs = spec.expand();
    for (const driver::Job &job : jobs) {
        for (const ConfigError &e : job.config.validate())
            usage(path + ": job " + std::to_string(job.id) + ": " +
                  e.field + ": " + e.message);
    }
    if (jobs.empty())
        usage(path + ": empty matrix");
    return jobs;
}

volatile std::uint64_t calibSink = 0;

/**
 * A fixed host workload that does not depend on the simulator: random
 * reads and writes over a 4 MB table, hash-map updates and integer
 * work, the mix the simulator's own hot path has. Timed after every
 * job, it measures how fast the shared host is running at that moment
 * (metrics.py rescales job times by it). Returns its time in ns.
 */
std::uint64_t
calibrate()
{
    static std::vector<std::uint64_t> table(1u << 19, 1);
    static std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    std::uint64_t c0 = SpanLog::cpuNow();
    for (int i = 0; i < 100000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += table[x & (table.size() - 1)];
        table[(x >> 20) & (table.size() - 1)] = acc;
        map[x & 0x3fff] += acc;
    }
    std::uint64_t t = SpanLog::cpuNow() - c0;
    calibSink = calibSink + acc;
    return t;
}

struct JobTimes
{
    std::uint64_t memOps = 0;
    std::vector<std::uint64_t> cpuNs;
    std::vector<std::uint64_t> calibNs;
    std::vector<std::string> fps;
};

/** Whole passes over @p jobs until @p budget_s is spent (at least
 *  @p min_passes). Returns the passes run. */
unsigned
timedPasses(const std::vector<driver::Job> &jobs, double budget_s,
            unsigned min_passes, std::vector<JobTimes> &times,
            SpanLog &clock)
{
    times.assign(jobs.size(), {});
    const std::uint64_t start = clock.now();
    const auto budget_ns = static_cast<std::uint64_t>(budget_s * 1e9);
    unsigned passes = 0;
    std::uint64_t last_pass = 0;
    while (passes < min_passes ||
           clock.now() - start + last_pass <= budget_ns) {
        std::uint64_t p0 = clock.now();
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            std::uint64_t c0 = SpanLog::cpuNow();
            RunResult r = runExperiment(jobs[j].config);
            times[j].cpuNs.push_back(SpanLog::cpuNow() - c0);
            times[j].memOps = r.memOps;
            times[j].fps.push_back(fingerprint(r));
            times[j].calibNs.push_back(calibrate());
        }
        last_pass = clock.now() - p0;
        ++passes;
    }
    return passes;
}

/** A counter from the run's metrics registry; the name must exist. */
double
metric(const RunResult &r, const std::string &name)
{
    double v = 0;
    if (!r.metrics || !r.metrics->value(name, v))
        fatal("perfbench: run metrics lack '%s'", name.c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path, spans_out;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool traced = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("'" + arg + "' needs a value");
            return argv[++i];
        };
        if (arg == "--spec") {
            spec_path = next();
        } else if (arg == "--seed") {
            seed = std::strtoull(next().c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            seconds = std::atof(next().c_str());
        } else if (arg == "--traced") {
            traced = true;
        } else if (arg == "--spans-out") {
            spans_out = next();
        } else {
            usage("unknown flag '" + arg + "'");
        }
    }
    if (spec_path.empty() || !have_seed || seconds <= 0)
        usage("need --spec FILE --seed N --seconds S");
    setLogLevel(LogLevel::Quiet);

    SpanLog clock;

    // Set-up: parse, expand, validate, and one warm-up job; repeated
    // so the median stands for it.
    std::vector<driver::Job> jobs;
    std::vector<std::uint64_t> setup_ns, setup_calib_ns;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t c0 = SpanLog::cpuNow();
        jobs = loadJobs(spec_path, seed);
        runExperiment(jobs.front().config);
        setup_ns.push_back(SpanLog::cpuNow() - c0);
        setup_calib_ns.push_back(calibrate());
    }

    std::vector<JobTimes> times;
    unsigned passes = timedPasses(jobs, traced ? 0.4 * seconds : seconds,
                                  traced ? 1 : 2, times, clock);

    std::ostringstream os;
    os.precision(17);
    os << "{\"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"seed\": " << seed << ", \"traced\": "
       << (traced ? "true" : "false") << ", \"passes\": " << passes
       << ",\n \"setup_cpu_ns\": ";
    writeList(os, setup_ns);
    os << ", \"setup_calib_ns\": ";
    writeList(os, setup_calib_ns);
    os << ",\n \"jobs\": [";
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ExperimentConfig &run = jobs[j].config.run;
        os << (j ? ",\n  " : "\n  ") << "{\"id\": " << jobs[j].id
           << ", \"workload\": " << quoted(run.workload)
           << ", \"treatment\": " << quoted(treatmentName(run.treatment))
           << ", \"mem_ops\": " << times[j].memOps << ", \"cpu_ns\": ";
        writeList(os, times[j].cpuNs);
        os << ", \"calib_ns\": ";
        writeList(os, times[j].calibNs);
        os << ", \"fp\": ";
        writeList(os, times[j].fps);
        os << "}";
    }
    os << "]";

    if (traced) {
        // Stats pass: counts repeat exactly, so one pass is enough.
        // PTSB commit sizes come from the trace timeline (the runtime
        // registers no per-PTSB stats).
        std::uint64_t ptsb_bytes = 0, ptsb_dirty = 0;
        os << ",\n \"counts\": [";
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            Config cfg = jobs[j].config;
            cfg.run.dumpStats = true;
            cfg.run.trace.enabled =
                cfg.run.treatment == Treatment::TmiProtect;
            RunResult r = runExperiment(cfg);
            for (const obs::TraceEvent &ev : r.traceEvents) {
                if (ev.kind == obs::EventKind::PtsbCommit) {
                    ptsb_bytes += ev.a0;
                    ++ptsb_dirty;
                }
            }
            const bool ptsb = cfg.run.treatment == Treatment::TmiProtect ||
                              cfg.run.treatment ==
                                  Treatment::SheriffProtect;
            os << (j ? ",\n  " : "\n  ") << "{\"id\": " << jobs[j].id
               << ", \"fp\": " << quoted(fingerprint(r))
               << ", \"mem_ops\": " << r.memOps
               << ", \"accesses\": " << metric(r, "machine.accesses")
               << ", \"l1_hits\": " << metric(r, "machine.l1Hits")
               << ", \"hitm\": " << r.hitmEvents
               << ", \"dram_fills\": " << metric(r, "machine.dramFills")
               << ", \"tlb_misses\": " << metric(r, "machine.tlbMisses")
               << ", \"switches\": "
               << metric(r, "machine.contextSwitches")
               << ", \"atomics\": " << metric(r, "machine.atomicOps")
               << ", \"soft_faults\": " << r.softFaults
               << ", \"cow_faults\": " << metric(r, "machine.cowFaults")
               << ", \"records\": " << r.pebsRecords
               << ", \"ptsb_commits\": " << (ptsb ? r.commits : 0)
               << ", \"txn_commits\": " << r.txnCommits
               << ", \"txn_aborts\": " << r.txnAborts << "}";
        }
        os << "],\n \"ptsb_bytes\": " << ptsb_bytes
           << ", \"ptsb_dirty_commits\": " << ptsb_dirty;

        // Runtimes the matrix lacks are timed on its first job's
        // workload, so every runtime's cost is a measurement.
        os << ",\n \"probes\": [";
        bool first = true;
        for (Treatment t : runtimeTreatments) {
            bool present = false;
            for (const driver::Job &job : jobs)
                present = present || job.config.run.treatment == t;
            if (present)
                continue;
            Config cfg = jobs.front().config;
            cfg.run.treatment = t;
            std::uint64_t c0 = SpanLog::cpuNow();
            RunResult r = runExperiment(cfg);
            std::uint64_t ns = SpanLog::cpuNow() - c0;
            os << (first ? "\n  " : ",\n  ")
               << "{\"workload\": " << quoted(cfg.run.workload)
               << ", \"treatment\": " << quoted(treatmentName(t))
               << ", \"mem_ops\": " << r.memOps << ", \"cpu_ns\": " << ns
               << "}";
            first = false;
        }
        os << "]";

        os << ",\n \"captures\": [";
        first = true;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (jobs[j].config.run.treatment != Treatment::Pthreads)
                continue;
            perfbench::JobTrace t =
                perfbench::traceJob(jobs[j].config, jobs[j].id, clock);
            os << (first ? "\n  " : ",\n  ") << "{\"id\": " << jobs[j].id
               << ", \"cycles\": " << t.cycles
               << ", \"hitm\": " << t.hitmEvents
               << ", \"mem_ops\": " << t.memOps
               << ", \"valid\": " << (t.valid ? "true" : "false")
               << ", \"cpu_ns\": " << t.cpuNs
               << ", \"plain_cpu_ns\": " << t.plainCpuNs
               << ", \"captured\": " << t.captured
               << ", \"live_l1_hits\": " << t.liveL1Hits
               << ", \"live_hitm\": " << t.liveHitm
               << ", \"replay_l1_hits\": " << t.replayL1Hits
               << ", \"replay_hitm\": " << t.replayHitm
               << ", \"frame_misses\": " << t.frameMisses << "}";
            first = false;
        }
        os << "]";

        perfbench::replayScheduler(clock, 16);
        perfbench::replayPtsbCommit(
            clock, ptsb_dirty ? (ptsb_bytes + ptsb_dirty / 2) / ptsb_dirty
                              : 8,
            4096);

        // Per-layer totals over every span.
        std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
            layers;
        for (const perfbench::Span &s : clock.spans()) {
            layers[s.layer].first += s.busyNs;
            layers[s.layer].second += s.calls;
        }
        os << ",\n \"layers\": {";
        first = true;
        for (const auto &[name, v] : layers) {
            os << (first ? "\n  " : ",\n  ") << quoted(name)
               << ": {\"busy_ns\": " << v.first
               << ", \"calls\": " << v.second << "}";
            first = false;
        }
        os << "}";

        if (!spans_out.empty()) {
            std::ofstream so(spans_out);
            if (!so)
                usage("cannot write '" + spans_out + "'");
            for (const perfbench::Span &s : clock.spans()) {
                so << "{\"layer\": " << quoted(s.layer)
                   << ", \"job\": " << s.job << ", \"start_ns\": "
                   << s.startNs << ", \"end_ns\": " << s.endNs
                   << ", \"busy_ns\": " << s.busyNs
                   << ", \"calls\": " << s.calls << "}\n";
            }
        }
    }

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    os << ",\n \"peak_rss_kb\": " << ru.ru_maxrss << "}\n";
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
