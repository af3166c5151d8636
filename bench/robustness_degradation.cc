/**
 * @file
 * Robustness sweep: every false-sharing workload is run under
 * tmi-protect with one fault point forced at a time, then with a
 * rate sweep on the two highest-leverage points. The claim under
 * test is the degradation ladder's contract: no injected fault may
 * cost correctness or forward progress -- the run lands on some
 * ladder rung (detect-and-repair, detect-only, alloc-only) with the
 * right checksum, and only speed is sacrificed.
 *
 * Columns: outcome ("ok" = completed + validated), the final ladder
 * rung, slowdown vs the same treatment with no faults, injected
 * fires, and which self-healing mechanisms engaged (T2P aborts,
 * un-repairs, watchdog flushes, COW fallbacks).
 *
 * The closing campaign is the ROADMAP fault-rate sweep: every FS
 * workload x the two highest-leverage fault points x a rate ladder,
 * at scale 8, expressed as a driver::SweepSpec and executed on the
 * sweep runner (TMI_BENCH_WORKERS host threads; output order is
 * fixed by job id regardless).
 */

#include "bench_util.hh"

using namespace tmi;
using namespace tmi::bench;

namespace
{

struct Scenario
{
    const char *label;
    const char *point;
    FaultSpec spec;
};

std::vector<Scenario>
scenarios()
{
    return {
        {"perf-overflow", faultpoint::perfRingOverflow,
         FaultSpec::always()},
        {"perf-drop", faultpoint::perfDropRecord,
         FaultSpec::withProbability(0.5)},
        {"perf-wild-pc", faultpoint::perfWildPc,
         FaultSpec::withProbability(0.5)},
        {"perf-bad-addr", faultpoint::perfCorruptAddr,
         FaultSpec::withProbability(0.5)},
        {"clone-fail", faultpoint::memCloneFail,
         FaultSpec::always()},
        {"clone-fail-1x", faultpoint::memCloneFail,
         FaultSpec::once()},
        {"frame-exhaust", faultpoint::memFrameExhausted,
         FaultSpec::always()},
        {"twin-fail", faultpoint::ptsbTwinAllocFail,
         FaultSpec::always()},
        {"oversize-commit", faultpoint::ptsbOversizeCommit,
         FaultSpec::always()},
        {"stop-timeout-1x", faultpoint::schedStopTimeout,
         FaultSpec::once()},
    };
}

RunResult
runWithFault(const std::string &workload, std::uint64_t scale,
             const char *point, const FaultSpec &spec)
{
    ExperimentBuilder b =
        benchBuilder(workload, Treatment::TmiProtect, scale);
    if (point)
        b.fault(point, spec);
    return b.run();
}

} // namespace

int
main()
{
    std::uint64_t scale = benchScale(3);
    CsvSink csv(robustnessCsvHeader());

    header("Degradation ladder: forced faults, one point at a time");
    std::printf("%-14s %-16s %6s %-18s %9s %7s %11s\n", "workload",
                "scenario", "state", "rung", "slowdown", "fires",
                "healing");

    unsigned bad = 0;
    for (const auto &name : falseSharingSet()) {
        RunResult clean = runWithFault(name, scale, nullptr, {});
        std::printf("%-14s %-16s %6s %-18s %9s %7s %11s\n",
                    name.c_str(), "none", outcomeStr(clean),
                    clean.ladderRung.c_str(), "1.000x", "0", "-");
        csv.row("%s", robustnessCsvRow(clean, "none", 1.0).c_str());
        for (const Scenario &sc : scenarios()) {
            RunResult res =
                runWithFault(name, scale, sc.point, sc.spec);
            double slow =
                clean.cycles
                    ? static_cast<double>(res.cycles) / clean.cycles
                    : 0.0;
            char healing[64];
            std::snprintf(healing, sizeof(healing),
                          "a%lu u%lu w%lu c%lu",
                          static_cast<unsigned long>(res.t2pAborts),
                          static_cast<unsigned long>(res.unrepairs),
                          static_cast<unsigned long>(
                              res.watchdogFlushes),
                          static_cast<unsigned long>(
                              res.cowFallbacks));
            std::printf("%-14s %-16s %6s %-18s %8.3fx %7lu %11s\n",
                        name.c_str(), sc.label, outcomeStr(res),
                        res.ladderRung.c_str(), slow,
                        static_cast<unsigned long>(res.faultFires),
                        healing);
            csv.row("%s",
                    robustnessCsvRow(res, sc.label, slow).c_str());
            bad += !res.compatible;
        }
    }

    header("Fault-rate sweep (histogramfs): overhead vs rate");
    std::printf("%-18s %8s %6s %-18s %9s\n", "point", "rate", "state",
                "rung", "slowdown");
    RunResult clean = runWithFault("histogramfs", scale, nullptr, {});
    for (const char *point : {faultpoint::memFrameExhausted,
                              faultpoint::perfDropRecord}) {
        for (double rate : {0.01, 0.1, 0.5, 1.0}) {
            RunResult res = runWithFault(
                "histogramfs", scale, point,
                FaultSpec::withProbability(rate));
            double slow =
                clean.cycles
                    ? static_cast<double>(res.cycles) / clean.cycles
                    : 0.0;
            std::printf("%-18s %8.2f %6s %-18s %8.3fx\n", point,
                        rate, outcomeStr(res),
                        res.ladderRung.c_str(), slow);
            char scenario[48];
            std::snprintf(scenario, sizeof(scenario), "%s@%.2f",
                          point, rate);
            csv.row("%s",
                    robustnessCsvRow(res, scenario, slow).c_str());
            bad += !res.compatible;
        }
    }

    header("Campaign: fault-rate x FS-workload sweep (sweep driver)");
    std::printf("%-14s %-24s %6s %-18s %9s\n", "workload", "scenario",
                "state", "rung", "slowdown");

    driver::SweepSpec spec;
    spec.base = benchBuilder("histogramfs", Treatment::TmiProtect,
                             benchScale(8))
                    .peek();
    spec.workloads = falseSharingSet();
    spec.faultPoints = {faultpoint::memFrameExhausted,
                        faultpoint::perfDropRecord};
    // Rate 0 cells are the clean controls the slowdown column is
    // computed against (expansion order keeps them first per point).
    spec.faultRates = {0.0, 0.01, 0.1, 0.5, 1.0};

    driver::RunnerOptions opts;
    opts.workers = benchWorkers();

    std::uint64_t clean_cycles = 0;
    driver::FunctionSink sink([&](const driver::JobResult &r) {
        std::string scenario = r.job.scenario();
        if (r.status != driver::JobStatus::Ok) {
            std::printf("%-14s %-24s %6s %-18s %9s\n",
                        r.job.config.run.workload.c_str(),
                        scenario.c_str(),
                        driver::jobStatusName(r.status), "-", "-");
            ++bad;
            return;
        }
        if (r.job.faultRate == 0.0)
            clean_cycles = r.run.cycles;
        double slow = clean_cycles
                          ? static_cast<double>(r.run.cycles) /
                                static_cast<double>(clean_cycles)
                          : 0.0;
        std::printf("%-14s %-24s %6s %-18s %8.3fx\n",
                    r.job.config.run.workload.c_str(),
                    scenario.c_str(), outcomeStr(r.run),
                    r.run.ladderRung.c_str(), slow);
        csv.row("%s",
                robustnessCsvRow(r.run, scenario, slow).c_str());
        bad += !r.run.compatible;
    });
    driver::Executor::inProcess(opts).run("", spec.expand(), &sink);

    std::printf("\n%u faulted run(s) lost correctness or hung "
                "(contract: 0)\n",
                bad);
    return bad != 0;
}
