/**
 * @file
 * tmi-chaos: the chaos campaign front-end.
 *
 * Three subcommands over src/chaos/:
 *
 *   tmi-chaos campaign --workloads histogramfs,lreg \
 *       --treatments tmi-protect,sheriff-protect [--schedules N] \
 *       [--campaign-seed S] [--workers N] [--csv out.csv]
 *
 *     Runs goldens + N generated fault schedules per cell, streams
 *     the campaign CSV (schema: scripts/check_chaos.py), and shrinks
 *     failures to minimal reproducer spec files under --repro-dir.
 *     The CSV is byte-identical for any --workers value. The cell and
 *     campaign flags are rows of the shared flag table
 *     (src/driver/flags.cc; cmdCampaign names them); the generator
 *     knobs --schedules, --campaign-seed, --min-events, --max-events,
 *     --no-minimize, --minimize-limit, --buggy-dissolve and
 *     --repro-dir are this tool's own.
 *
 *     --journal-dir turns on crash-safe orchestration: schedules run
 *     in --shards worker processes journaling every result, a
 *     schedule that kills its worker twice is quarantined
 *     (status=poisoned) instead of sinking the campaign, and a
 *     killed campaign continues with --resume, reproducing the
 *     uninterrupted CSV byte for byte. Exit status: 0 = every run
 *     executed and passed its oracle, 1 = an oracle failure OR any
 *     job that failed/crashed/was quarantined, 2 = usage error.
 *
 *   tmi-chaos replay <spec-file> [--expect-fail] [--verbose]
 *       [--param key=value]...
 *
 *     Re-runs one schedule spec (fresh golden + faulted run) and
 *     prints the verdict. Exit 0 when the verdict is pass -- or,
 *     with --expect-fail, when the oracle (still) catches the
 *     failure, which is how CI pins checked-in regression
 *     reproducers. --param passes workload knobs into the base
 *     config exactly as the campaign subcommand does.
 *
 *   tmi-chaos minimize <spec-file> [--out file.spec] [--verbose]
 *       [--param key=value]...
 *
 *     Delta-debugs a failing spec to a 1-minimal reproducer.
 *
 *   tmi-chaos --list-fault-points
 *
 *     The full fault-point registry schedules are drawn from.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "chaos/campaign.hh"
#include "driver/flags.hh"

using namespace tmi;

namespace
{

const char *const kTool = "tmi-chaos";

/** Parse @p path; a config the schedule describes must validate
 *  (e.g. every event names a registered fault point). */
chaos::ChaosSchedule
loadSchedule(const std::string &path, const Config &base)
{
    chaos::ChaosSchedule sched;
    std::string err;
    if (!chaos::parseScheduleSpec(driver::readFileOrExit(kTool, path),
                                  sched, err))
        driver::usageError(kTool, path + ": " + err);
    driver::exitOnConfigErrors(kTool, sched.toConfig(base).validate());
    return sched;
}

void
printRow(const chaos::CampaignRow &row)
{
    std::fprintf(stderr,
                 "[chaos] %s: %s (%s) rung=%s fires=%llu "
                 "slowdown=%.2f\n",
                 row.schedule.summary().c_str(),
                 chaos::verdictName(row.judgement.verdict),
                 row.judgement.reason.c_str(),
                 row.run.ladderRung.empty()
                     ? "-"
                     : row.run.ladderRung.c_str(),
                 static_cast<unsigned long long>(row.run.faultFires),
                 row.slowdown);
}

int
cmdCampaign(int argc, char **argv)
{
    driver::CliOptions opts;
    chaos::CampaignSpec spec;
    std::string repro_dir;
    std::vector<driver::Flag> flags = driver::sharedFlags(
        opts,
        {"--workloads", "--treatments", "--threads", "--scale",
         "--budget", "--param", "--watchdog", "--monitor",
         "--recover-up", "--workers", "--retries", "--timeout-ms",
         "--csv", "--journal-dir", "--shards", "--resume",
         "--checkpoint-every", "--kill-budget", "--no-progress",
         "--verbose"});
    flags.push_back(driver::valueFlag("--schedules", spec.schedules));
    flags.push_back(
        driver::valueFlag("--campaign-seed", spec.campaignSeed));
    flags.push_back(
        driver::valueFlag("--min-events", spec.generator.minEvents));
    flags.push_back(
        driver::valueFlag("--max-events", spec.generator.maxEvents));
    flags.push_back(
        driver::setFlag("--no-minimize", spec.minimizeFailures, false));
    flags.push_back(
        driver::valueFlag("--minimize-limit", spec.minimizeLimit));
    flags.push_back(driver::setFlag("--buggy-dissolve",
                                    spec.sheriffBuggyDissolve, true));
    flags.push_back(driver::valueFlag("--repro-dir", repro_dir));
    driver::parseFlags(kTool, flags, argc, argv);
    driver::finishCampaignFlags(kTool, opts);

    spec.base = opts.sweep.base;
    spec.workloads = opts.sweep.workloads;
    spec.treatments = opts.sweep.treatments;
    driver::exitOnConfigErrors(kTool, spec.validate());

    std::ofstream csv_file;
    if (!opts.csvPath.empty())
        csv_file = driver::writeFileOrExit(kTool, opts.csvPath);
    std::ostream &os = opts.csvPath.empty() ? std::cout : csv_file;

    chaos::CampaignOutcome outcome;
    driver::runCampaignFlags(
        kTool, "chaos", opts, [&](driver::Executor &executor) {
            outcome = chaos::runCampaign(spec, executor, &os);
        });

    for (const auto &repro : outcome.reproducers) {
        std::fprintf(
            stderr,
            "[chaos] minimized %s: %zu -> %zu events in %u probes "
            "(%s)\n",
            repro.minimized.summary().c_str(),
            repro.stats.originalEvents, repro.stats.minimizedEvents,
            repro.stats.probes,
            chaos::verdictName(repro.judgement.verdict));
        if (repro_dir.empty())
            continue;
        std::filesystem::create_directories(repro_dir);
        std::ostringstream name;
        name << repro_dir << "/repro_" << repro.minimized.workload
             << "_" << treatmentName(repro.minimized.treatment)
             << "_" << repro.minimized.index << ".spec";
        std::ofstream rf(name.str());
        if (!rf) {
            std::fprintf(stderr, "tmi-chaos: cannot write '%s'\n",
                         name.str().c_str());
            continue;
        }
        rf << chaos::writeScheduleSpec(repro.minimized);
        std::fprintf(stderr, "[chaos] wrote %s\n",
                     name.str().c_str());
    }

    std::fprintf(stderr,
                 "[chaos] campaign seed %llu: %llu judged, %llu "
                 "passed, %llu failed, %llu skipped\n",
                 static_cast<unsigned long long>(spec.campaignSeed),
                 static_cast<unsigned long long>(outcome.judged),
                 static_cast<unsigned long long>(outcome.passed),
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.skipped));
    // A campaign is only a success when every run executed AND
    // passed: a crashed or quarantined job must not be laundered
    // into "skipped" silence.
    if (!outcome.clean()) {
        std::fprintf(
            stderr,
            "[chaos] FAILED: %llu oracle failure(s), %llu job(s) "
            "did not execute (crashed/failed/quarantined)\n",
            static_cast<unsigned long long>(outcome.failed),
            static_cast<unsigned long long>(outcome.jobFailures));
        return 1;
    }
    return 0;
}

/** The spec file and base config of replay/minimize. */
struct ScheduleArgs
{
    driver::CliOptions opts;
    std::vector<std::string> files;

    /** Parse @p argc args of @p argv with the extra @p flags. */
    chaos::ChaosSchedule
    parse(const char *cmd, std::vector<driver::Flag> flags, int argc,
          char **argv)
    {
        for (driver::Flag &f :
             driver::sharedFlags(opts, {"--param", "--verbose"}))
            flags.push_back(std::move(f));
        driver::parseFlags(kTool, flags, argc, argv, &files);
        if (files.empty())
            driver::usageError(kTool, std::string(cmd) +
                                          " needs a spec file");
        if (!opts.verbose)
            setLogLevel(LogLevel::Quiet);
        return loadSchedule(files.back(), opts.sweep.base);
    }
};

int
cmdReplay(int argc, char **argv)
{
    bool expect_fail = false;
    ScheduleArgs args;
    chaos::ChaosSchedule sched = args.parse(
        "replay", {driver::setFlag("--expect-fail", expect_fail, true)},
        argc, argv);
    const Config &base = args.opts.sweep.base;

    chaos::CampaignRow row = chaos::replaySchedule(sched, base);
    printRow(row);
    bool caught = row.judgement.fail();
    if (expect_fail) {
        std::fprintf(stderr,
                     caught ? "[chaos] reproducer still caught\n"
                            : "[chaos] reproducer NO LONGER FAILS\n");
        return caught ? 0 : 1;
    }
    return row.judgement.pass() ? 0 : 1;
}

int
cmdMinimize(int argc, char **argv)
{
    std::string out_path;
    ScheduleArgs args;
    chaos::ChaosSchedule sched = args.parse(
        "minimize", {driver::valueFlag("--out", out_path)}, argc,
        argv);
    const std::string &path = args.files.back();
    const Config &base = args.opts.sweep.base;

    Config golden_cfg = sched.toConfig(base);
    golden_cfg.run.faults.clear();
    RunResult golden = runExperiment(golden_cfg);

    if (!chaos::judge(golden, runExperiment(sched.toConfig(base)))
             .fail()) {
        std::fprintf(stderr,
                     "tmi-chaos: '%s' does not fail; nothing to "
                     "minimize\n",
                     path.c_str());
        return 1;
    }

    chaos::MinimizeStats stats;
    chaos::ChaosSchedule minimal = chaos::minimizeSchedule(
        sched,
        [&](const chaos::ChaosSchedule &s) {
            return chaos::judge(golden,
                                runExperiment(s.toConfig(base)))
                .fail();
        },
        &stats);

    std::fprintf(stderr,
                 "[chaos] minimized %zu -> %zu events in %u probes\n",
                 stats.originalEvents, stats.minimizedEvents,
                 stats.probes);
    std::string text = chaos::writeScheduleSpec(minimal);
    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        driver::writeFileOrExit(kTool, out_path) << text;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        driver::usageError(kTool, "need a subcommand: campaign, replay, "
                                  "minimize, or --list-fault-points");
    }
    std::string cmd = argv[1];
    if (cmd == "campaign")
        return cmdCampaign(argc - 2, argv + 2);
    if (cmd == "replay")
        return cmdReplay(argc - 2, argv + 2);
    if (cmd == "minimize")
        return cmdMinimize(argc - 2, argv + 2);
    if (cmd[0] == '-') {
        driver::CliOptions opts;
        driver::parseFlags(
            kTool, driver::sharedFlags(opts, {"--list-fault-points"}),
            argc - 1, argv + 1);
    }
    driver::usageError(kTool, "unknown subcommand '" + cmd + "'");
}
