/**
 * @file
 * The acceptance chaos campaign: generated fault schedules per cell,
 * judged by the differential end-state oracle, over two families:
 *
 *  - batch: the false-sharing workload set (histogramfs, lreg,
 *    stringmatch, lu-ncb) under the three repairing treatments
 *    (tmi-protect, sheriff-protect, laser), 64 schedules per cell;
 *  - server: the long-running stateful feed handlers (feed-spsc,
 *    feed-spmc) with typed workload params under tmi-protect and
 *    laser (sheriff-protect cannot validate the ring atomics),
 *    16 schedules per cell.
 *
 * The claims under test:
 *
 *  - every surviving run converges to the fault-free end state
 *    (digest match), whatever rung the ladder landed on;
 *  - the campaign is deterministic: the CSV from this binary is
 *    byte-identical for any TMI_BENCH_WORKERS value (re-run with 1
 *    and 4 workers and `cmp` the files);
 *  - failures, if any ever appear, come out as minimized replayable
 *    reproducer specs instead of a seed number and a shrug.
 *
 * Env knobs: TMI_BENCH_SCALE (default 2), TMI_BENCH_WORKERS,
 * TMI_CHAOS_SCHEDULES (default 64), TMI_CHAOS_SERVER_SCHEDULES
 * (default 16), TMI_CHAOS_SEED (default 1), TMI_CHAOS_SHARDS
 * (worker processes; only with --journal-dir).
 * Usage: chaos_campaign [--csv out.csv] [--repro-dir DIR]
 *                       [--journal-dir DIR] [--resume]
 * (--csv, --journal-dir and --resume are shared flag-table rows,
 * src/driver/flags.cc).
 *
 * The server campaign writes its CSV next to the batch one as
 * "<out.csv>.server" (or to stdout after the batch CSV when no
 * --csv was given); with --journal-dir its journals live in
 * "<DIR>-server" so the two manifests never collide.
 *
 * --journal-dir runs the campaigns on the crash-safe shard
 * supervisor: results are journaled as they land, a killed run
 * continues with --resume, and the CSV is byte-identical to the
 * in-process campaign's.
 */

#include <fstream>
#include <iostream>

#include "bench_util.hh"
#include "chaos/campaign.hh"
#include "driver/flags.hh"

using namespace tmi;
using namespace tmi::bench;

namespace
{

const char *const kTool = "chaos_campaign";

/** Run one campaign (in-process or sharded per --journal-dir) and
 *  report its reproducers; returns false on an unclean outcome. */
bool
runOne(const char *label, const chaos::CampaignSpec &spec,
       const driver::CliOptions &io, const std::string &repro_dir)
{
    std::ofstream csv_file;
    if (!io.csvPath.empty()) {
        csv_file.open(io.csvPath);
        if (!csv_file)
            driver::usageError(kTool,
                               "cannot write '" + io.csvPath + "'");
    }
    std::ostream &os = io.csvPath.empty()
                           ? static_cast<std::ostream &>(std::cout)
                           : csv_file;

    chaos::CampaignOutcome outcome;
    std::string tag = std::string("chaos:") + label;
    driver::runCampaignFlags(
        kTool, tag.c_str(), io,
        [&](driver::Runner &runner) {
            outcome = chaos::runCampaign(spec, runner, &os);
            return runner.stats();
        },
        [&](const driver::ShardOptions &shard) {
            chaos::ShardedCampaignOptions sharded;
            sharded.shard = shard;
            driver::ShardRunStats stats;
            outcome =
                chaos::runCampaignSharded(spec, sharded, &os, &stats);
            return stats;
        });

    for (const auto &repro : outcome.reproducers) {
        std::fprintf(stderr, "[chaos:%s] minimized reproducer:\n%s",
                     label,
                     chaos::writeScheduleSpec(repro.minimized)
                         .c_str());
        if (repro_dir.empty())
            continue;
        std::string name = repro_dir + "/repro_" +
                           repro.minimized.workload + "_" +
                           std::to_string(repro.minimized.index) +
                           ".spec";
        std::ofstream rf(name);
        if (rf)
            rf << chaos::writeScheduleSpec(repro.minimized);
    }

    std::fprintf(stderr,
                 "[chaos:%s] %llu judged, %llu passed, %llu failed, "
                 "%llu skipped (seed %llu)\n",
                 label,
                 static_cast<unsigned long long>(outcome.judged),
                 static_cast<unsigned long long>(outcome.passed),
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.skipped),
                 static_cast<unsigned long long>(spec.campaignSeed));
    return outcome.clean();
}

} // namespace

int
main(int argc, char **argv)
{
    driver::CliOptions io;
    std::string repro_dir;
    std::vector<driver::Flag> flags = driver::sharedFlags(
        io, {"--csv", "--journal-dir", "--resume"});
    flags.push_back(driver::valueFlag("--repro-dir", repro_dir));
    driver::parseFlags(kTool, flags, argc - 1, argv + 1);
    driver::finishCampaignFlags(kTool, io);
    io.runner.workers = benchWorkers();
    io.runner.progress = false;
    io.shard.shards =
        static_cast<unsigned>(envU64("TMI_CHAOS_SHARDS", 2));

    chaos::CampaignSpec batch;
    batch.base.run = benchConfig("histogramfs", Treatment::TmiProtect,
                                 benchScale(2));
    // The FS set minus the atomics-reliant cells Sheriff/LASER
    // cannot validate anyway is still >= 4 workloads; use the
    // digest-bearing Phoenix/Splash subset for apples-to-apples
    // judging across all three treatments.
    batch.workloads = {"histogramfs", "lreg", "stringmatch",
                       "lu-ncb"};
    batch.treatments = {Treatment::TmiProtect,
                        Treatment::SheriffProtect, Treatment::Laser};
    batch.schedules = envU64("TMI_CHAOS_SCHEDULES", 64);
    batch.campaignSeed = envU64("TMI_CHAOS_SEED", 1);

    // The server family keeps per-request state alive across the
    // whole run, so fault recovery is judged against a stateful
    // end-state digest, not a one-shot reduction. Sheriff-protect is
    // out: it cannot validate the SPSC/MPMC ring atomics.
    chaos::CampaignSpec server;
    server.base.run = benchConfig("feed-spsc", Treatment::TmiProtect,
                                  benchScale(2));
    server.base.run.params = {{"requests", "256"},
                              {"stat_rounds", "4"},
                              {"burst", "4"}};
    server.workloads = {"feed-spsc", "feed-spmc"};
    server.treatments = {Treatment::TmiProtect, Treatment::Laser};
    server.schedules = envU64("TMI_CHAOS_SERVER_SCHEDULES", 16);
    server.campaignSeed = envU64("TMI_CHAOS_SEED", 1);

    driver::CliOptions server_io = io;
    if (!io.csvPath.empty())
        server_io.csvPath = io.csvPath + ".server";
    if (!io.shard.journalDir.empty())
        server_io.shard.journalDir = io.shard.journalDir + "-server";

    bool ok = runOne("batch", batch, io, repro_dir);
    ok = runOne("server", server, server_io, repro_dir) && ok;
    return ok ? 0 : 1;
}
