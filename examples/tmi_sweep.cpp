/**
 * @file
 * tmi-sweep: run a whole experiment matrix in one command.
 *
 * A sweep is a base configuration plus value lists for the evaluation
 * axes (workload x treatment x scale x period x fault-point x
 * fault-rate x seed). The matrix is expanded once, executed on a host
 * worker pool with retries and per-job timeouts, and streamed as the
 * canonical sweep CSV (schema: scripts/check_sweep.py) in job-id
 * order -- the CSV is byte-identical for any --workers value.
 *
 * Usage:
 *   tmi-sweep --workloads histogramfs,counterarray \
 *       --treatments pthreads,tmi-protect [--scales 2,4] \
 *       [--fault-points mem.frame_exhausted --fault-rates 0,0.5] \
 *       [--spec sweep.conf] [--workers N] [--csv out.csv] [--dry-run]
 *
 * Every flag but --dry-run is a row of the shared flag table
 * (src/driver/flags.cc; main() names the rows accepted here). The
 * axis and base-config flags are the sweep-spec keys (--fault-points
 * is fault_points): --spec reads the same keys from a key=value file,
 * and flags apply after it in order, appending to axis lists. A
 * --workloads item family:NAME expands to every workload of that
 * family. --plan-in loads a saved huron-static layout plan that every
 * huron-static cell replays instead of profiling. CSV goes to stdout
 * unless --csv is given; progress and the summary go to stderr.
 *
 * --journal-dir turns on crash-safe orchestration: the matrix is
 * split over --shards worker *processes*, every result is journaled
 * before it counts, a crashing job is retried and then quarantined
 * (status=poisoned) instead of killing the campaign, and a killed
 * run continues with --resume -- the merged CSV is byte-identical
 * to an uninterrupted run. Exit status: 0 = every job ok, 1 = some
 * job failed, timed out or was quarantined, 2 = usage error.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "driver/flags.hh"

using namespace tmi;

namespace
{

const char *const kTool = "tmi-sweep";

} // namespace

int
main(int argc, char **argv)
{
    driver::CliOptions opts;
    bool dry_run = false;
    std::vector<driver::Flag> flags = driver::sharedFlags(
        opts,
        {"--spec", "--workloads", "--treatments", "--placements",
         "--scales", "--periods", "--fault-points", "--fault-rates",
         "--seeds", "--threads", "--budget", "--param", "--plan-in",
         "--interval", "--watchdog", "--monitor", "--workers",
         "--retries", "--timeout-ms", "--csv", "--journal-dir",
         "--shards", "--resume", "--checkpoint-every", "--kill-budget",
         "--no-progress", "--verbose", "--family", "--list-workloads",
         "--list-treatments", "--list-fault-points"});
    flags.push_back(driver::setFlag("--dry-run", dry_run, true));
    driver::parseFlags(kTool, flags, argc - 1, argv + 1);
    driver::finishCampaignFlags(kTool, opts);

    const driver::SweepSpec &spec = opts.sweep;
    driver::exitOnConfigErrors(kTool, spec.validate());

    if (dry_run) {
        // The expansion, one line per job, without running anything.
        for (const driver::Job &job : spec.expand()) {
            std::printf(
                "%llu %s %s scale=%llu period=%llu seed=%llu %s\n",
                static_cast<unsigned long long>(job.id),
                job.config.run.workload.c_str(),
                treatmentName(job.config.run.treatment),
                static_cast<unsigned long long>(job.config.run.scale),
                static_cast<unsigned long long>(
                    job.config.run.perfPeriod),
                static_cast<unsigned long long>(job.config.run.seed),
                job.scenario().c_str());
        }
        return 0;
    }

    // The path sink owns its FILE and fsyncs on checkpoint
    // boundaries: a killed orchestrator never leaves a torn row.
    std::unique_ptr<driver::SweepCsvSink> sink;
    if (!opts.csvPath.empty()) {
        sink = std::make_unique<driver::SweepCsvSink>(
            opts.csvPath, opts.shard.checkpointEvery);
        if (!sink->ok())
            driver::usageError(kTool,
                               "cannot write '" + opts.csvPath + "'");
    } else {
        sink = std::make_unique<driver::SweepCsvSink>(std::cout);
    }

    driver::ShardRunStats run = driver::runCampaignFlags(
        kTool, "sweep", opts, [&](driver::Executor &executor) {
            executor.run("", spec.expand(), sink.get());
        });
    sink->sync();

    const driver::SweepStats &stats = run.sweep;
    std::fprintf(
        stderr,
        "[sweep] %llu jobs: %llu ok, %llu failed, %llu "
        "timed out, %llu cancelled, %llu poisoned; %llu retries; "
        "%.1fs\n",
        static_cast<unsigned long long>(stats.total),
        static_cast<unsigned long long>(stats.ok),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.timedOut),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.poisoned),
        static_cast<unsigned long long>(stats.retries),
        stats.wallSeconds);
    if (stats.ok != stats.total) {
        std::fprintf(
            stderr,
            "[sweep] FAILED: %llu of %llu job(s) did not finish ok"
            " (%llu quarantined as poison, %llu worker crash(es))\n",
            static_cast<unsigned long long>(stats.total - stats.ok),
            static_cast<unsigned long long>(stats.total),
            static_cast<unsigned long long>(stats.poisoned),
            static_cast<unsigned long long>(run.crashes));
        return 1;
    }
    return 0;
}
