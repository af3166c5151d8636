/**
 * @file
 * General-purpose experiment CLI: run any (workload x treatment)
 * cell of the evaluation matrix with full control over the knobs,
 * and export what happened -- component statistics, a Chrome trace
 * of the run, a CSV time series, or a human-readable report.
 *
 * Usage:
 *   experiment_cli --workload leveldb --treatment tmi-protect \
 *       [--threads 4] [--scale 4] [--fault point:SPEC]... [--stats]
 *
 * The run-config flags are rows of the shared flag table
 * (src/driver/flags.cc; main() names the rows accepted here);
 * --list-workloads, --list-treatments and --list-fault-points print
 * the registries. Fault SPECs: always | once | once=N | p=0.5 |
 * every=N. Exit status: 0 = valid result, 1 = the run failed or
 * produced an invalid result, 2 = usage or config error.
 *
 * The outputs only this tool writes:
 *   --trace-out run.json  Chrome trace_event JSON (ui.perfetto.dev):
 *                         detect -> repair -> fault -> ladder drops
 *   --trace-csv run.csv   the trace as a per-interval time series
 *   --report              a human-readable trace report
 *   --csv-out row.csv     the run as one robustness-CSV row
 *   --plan-out plan.txt   the layout plan huron-static synthesized;
 *                         --plan-in replays a saved plan directly
 *                         (profiling skipped), which is what lets CI
 *                         pin a golden plan
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "core/config.hh"
#include "driver/flags.hh"
#include "obs/export.hh"

using namespace tmi;

namespace
{

const char *const kTool = "experiment_cli";

} // namespace

int
main(int argc, char **argv)
{
    driver::CliOptions opts;
    opts.sweep.base.run.workload = "histogramfs";
    bool report = false;
    std::string trace_out, trace_csv, csv_out, plan_out;

    std::vector<driver::Flag> flags = driver::sharedFlags(
        opts,
        {"--workload", "--treatment", "--threads", "--scale", "--period",
         "--threshold", "--interval", "--seed", "--budget", "--param",
         "--huge-pages", "--glibc-allocator", "--placement", "--fault",
         "--fault-seed", "--watchdog", "--monitor", "--watchdog-timeout",
         "--trace", "--ring", "--stats", "--plan-in", "--family",
         "--list", "--list-workloads", "--list-treatments",
         "--list-fault-points"});
    flags.push_back(driver::valueFlag("--trace-out", trace_out));
    flags.push_back(driver::valueFlag("--trace-csv", trace_csv));
    flags.push_back(driver::valueFlag("--csv-out", csv_out));
    flags.push_back(driver::valueFlag("--plan-out", plan_out));
    flags.push_back(driver::setFlag("--report", report, true));
    driver::parseFlags(kTool, flags, argc - 1, argv + 1);

    Config cfg = opts.sweep.base;
    // Any trace consumer implies recording.
    if (!trace_out.empty() || !trace_csv.empty() || report)
        cfg.run.trace.enabled = true;
    driver::exitOnConfigErrors(kTool, cfg.validate());

    double cps = cfg.machine.cyclesPerSecond;
    RunResult res = runExperiment(cfg);

    std::printf("workload      : %s\n", res.workload.c_str());
    std::printf("treatment     : %s\n", treatmentName(res.treatment));
    std::printf("outcome       : %s%s\n",
                res.outcome == RunOutcome::Completed ? "completed"
                : res.outcome == RunOutcome::Timeout ? "TIMEOUT"
                                                     : "DEADLOCK",
                res.compatible       ? " (valid)"
                : res.outcome == RunOutcome::Completed
                    ? " (INVALID RESULT)"
                    : "");
    std::printf("simulated time: %.3f ms (%llu cycles)\n",
                res.seconds * 1e3,
                static_cast<unsigned long long>(res.cycles));
    std::printf("memory ops    : %llu (%llu HITM, %llu PEBS "
                "records)\n",
                static_cast<unsigned long long>(res.memOps),
                static_cast<unsigned long long>(res.hitmEvents),
                static_cast<unsigned long long>(res.pebsRecords));
    std::printf("app memory    : %.2f MB peak (+%.2f MB runtime "
                "overhead)\n",
                res.appBytesPeak / 1048576.0,
                res.overheadBytes / 1048576.0);
    if (res.requests) {
        std::printf("sojourn       : %llu requests; p50 %.0f / p99 "
                    "%.0f / p999 %.0f cycles\n",
                    static_cast<unsigned long long>(res.requests),
                    res.sojournP50, res.sojournP99, res.sojournP999);
    }
    if (res.treatment == Treatment::HuronStatic) {
        std::printf("static plan   : %llu site(s), %llu applied, "
                    "%llu redirected, %llu bytes padding; profile "
                    "saw %llu HITM\n",
                    static_cast<unsigned long long>(res.planSites),
                    static_cast<unsigned long long>(
                        res.planAppliedSites),
                    static_cast<unsigned long long>(
                        res.planRedirectedSites),
                    static_cast<unsigned long long>(
                        res.planPaddingBytes),
                    static_cast<unsigned long long>(
                        res.planProfileHitms));
    }
    if (res.treatment == Treatment::HtmElide) {
        std::uint64_t tries = res.txnCommits + res.txnAborts;
        std::printf("htm           : %llu commits, %llu aborts "
                    "(%.1f%% abort rate), %llu lock fallbacks; "
                    "rung %s\n",
                    static_cast<unsigned long long>(res.txnCommits),
                    static_cast<unsigned long long>(res.txnAborts),
                    tries ? 100.0 * res.txnAborts / tries : 0.0,
                    static_cast<unsigned long long>(
                        res.txnFallbackLocks),
                    res.ladderRung.c_str());
    } else if (res.repairActive) {
        std::printf("repair        : engaged at %.3f ms; T2P %.1f us; "
                    "%llu pages; %llu commits (%.0f/s)\n",
                    res.repairStartCycles / (cps / 1e3),
                    res.t2pCycles / (cps / 1e6),
                    static_cast<unsigned long long>(
                        res.pagesProtected),
                    static_cast<unsigned long long>(res.commits),
                    res.commitsPerSec);
        if (res.conflictBytes) {
            std::printf("WARNING       : %llu racy-merge bytes -- the "
                        "PTSB raced with itself; results suspect\n",
                        static_cast<unsigned long long>(
                            res.conflictBytes));
        }
    }
    if (res.fsEventsEstimated || res.tsEventsEstimated) {
        std::printf("detector      : %.0f FS ev/s, %.0f TS ev/s "
                    "estimated\n",
                    res.fsEventsEstimated / res.seconds,
                    res.tsEventsEstimated / res.seconds);
    }
    if (cfg.run.trace.enabled) {
        std::printf("trace         : %llu events recorded, %llu lost "
                    "to ring wraparound\n",
                    static_cast<unsigned long long>(res.traceRecorded),
                    static_cast<unsigned long long>(
                        res.traceOverwritten));
    }

    if (!trace_out.empty()) {
        obs::ChromeTraceMeta meta;
        meta.cyclesPerSecond = cps;
        meta.processName = std::string(res.workload) + " / " +
                           treatmentName(res.treatment);
        std::ofstream os = driver::writeFileOrExit(kTool, trace_out);
        obs::writeChromeTrace(os, res.traceEvents, meta);
        std::printf("trace-out     : %s (%zu events; open in "
                    "ui.perfetto.dev)\n",
                    trace_out.c_str(), res.traceEvents.size());
    }
    if (!trace_csv.empty()) {
        std::ofstream os = driver::writeFileOrExit(kTool, trace_csv);
        obs::writeCsvTimeSeries(os, res.traceEvents, cps,
                                cfg.run.analysisInterval);
        std::printf("trace-csv     : %s (%llu-cycle windows)\n",
                    trace_csv.c_str(),
                    static_cast<unsigned long long>(
                        cfg.run.analysisInterval));
    }
    if (!csv_out.empty()) {
        std::ofstream os = driver::writeFileOrExit(kTool, csv_out);
        os << robustnessCsvHeader() << "\n"
           << robustnessCsvRow(res, "cli", 1.0) << "\n";
        std::printf("csv-out       : %s\n", csv_out.c_str());
    }
    if (!plan_out.empty()) {
        if (res.planText.empty()) {
            driver::usageError(kTool,
                               std::string("--plan-out: no plan to "
                                           "save (treatment '") +
                                   treatmentName(res.treatment) +
                                   "' does not synthesize one)");
        }
        std::ofstream os = driver::writeFileOrExit(kTool, plan_out);
        os << res.planText;
        std::printf("plan-out      : %s (%llu site(s))\n",
                    plan_out.c_str(),
                    static_cast<unsigned long long>(res.planSites));
    }
    if (report) {
        std::printf("\n");
        obs::writeTraceReport(std::cout, res.traceEvents, cps);
    }
    if (cfg.run.dumpStats)
        std::printf("\n%s", res.statsText.c_str());
    return res.compatible ? 0 : 1;
}
