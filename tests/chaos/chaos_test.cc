/**
 * @file
 * The chaos subsystem under test: deterministic schedule generation,
 * spec round-trips, the differential oracle, ddmin minimization, and
 * small end-to-end campaigns (determinism across worker counts, the
 * RecoverUp interplay, and the seeded Sheriff dissolve-ordering
 * regression the whole engine exists to catch).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>

#include "chaos/campaign.hh"
#include "common/fnv.hh"
#include "common/mutation_fuzz.hh"
#include "fault/fault_injector.hh"

using namespace tmi;
using namespace tmi::chaos;

// ---------------------------------------------------------------------
// ScheduleGenerator

TEST(ScheduleGenerator, SameSeedAndIndexReplaysByteForByte)
{
    ScheduleGenerator a(123), b(123);
    for (std::uint64_t k : {0ULL, 1ULL, 7ULL, 63ULL}) {
        ChaosSchedule sa = a.generate(k, 1'000'000);
        ChaosSchedule sb = b.generate(k, 1'000'000);
        EXPECT_EQ(sa, sb) << "index " << k;
        EXPECT_EQ(writeScheduleSpec(sa), writeScheduleSpec(sb));
    }
}

TEST(ScheduleGenerator, DrawsAreOrderIndependent)
{
    // generate(k) may be called in any order (or never for k-1):
    // each draw depends only on (campaign seed, k).
    ScheduleGenerator fwd(9), rev(9);
    ChaosSchedule a5 = fwd.generate(5);
    rev.generate(63);
    rev.generate(0);
    EXPECT_EQ(rev.generate(5), a5);
}

TEST(ScheduleGenerator, DifferentSeedsOrIndicesDiffer)
{
    ScheduleGenerator a(1), b(2);
    EXPECT_NE(a.generate(0), b.generate(0));
    EXPECT_NE(a.generate(0), a.generate(1));
}

TEST(ScheduleGenerator, EventsAreDistinctRegistryPointsWithinBounds)
{
    GeneratorOptions opts;
    opts.minEvents = 2;
    opts.maxEvents = 6;
    ScheduleGenerator gen(42, opts);
    std::set<std::string> registry;
    for (const FaultPointInfo &info : FaultInjector::allPoints())
        registry.insert(info.name);

    for (std::uint64_t k = 0; k < 64; ++k) {
        ChaosSchedule s = gen.generate(k, 10'000'000);
        EXPECT_GE(s.events.size(), opts.minEvents);
        EXPECT_LE(s.events.size(), opts.maxEvents);
        std::set<std::string> seen;
        for (const ChaosEvent &ev : s.events) {
            EXPECT_TRUE(registry.count(ev.point))
                << ev.point << " not in the registry";
            EXPECT_TRUE(seen.insert(ev.point).second)
                << ev.point << " drawn twice in one schedule";
            const FaultSpec &spec = ev.spec;
            // At least one trigger is always armed.
            EXPECT_TRUE(spec.probability > 0 || spec.fireAt > 0 ||
                        spec.everyNth > 0 || spec.burstPeriod > 0);
            if (spec.burstPeriod != 0) {
                EXPECT_GE(spec.burstLen, 1u);
                EXPECT_LE(spec.burstLen, spec.burstPeriod);
            }
            if (spec.windowEnd != 0) {
                EXPECT_LT(spec.windowStart, spec.windowEnd);
            }
        }
    }
}

TEST(ScheduleGenerator, ZeroHorizonDisablesWindows)
{
    ScheduleGenerator gen(7);
    for (std::uint64_t k = 0; k < 32; ++k) {
        for (const ChaosEvent &ev : gen.generate(k, 0).events) {
            EXPECT_EQ(ev.spec.windowStart, 0u);
            EXPECT_EQ(ev.spec.windowEnd, 0u);
        }
    }
}

TEST(ScheduleGenerator, GeneratedCellsProduceValidConfigs)
{
    ScheduleGenerator gen(11);
    Config base;
    for (std::uint64_t k = 0; k < 16; ++k) {
        ChaosSchedule s = gen.generate(k, 5'000'000);
        s.workload = "histogramfs";
        EXPECT_TRUE(s.toConfig(base).validate().empty());
    }
}

// ---------------------------------------------------------------------
// Spec round-trip

TEST(ScheduleSpec, GeneratedSchedulesRoundTrip)
{
    ScheduleGenerator gen(77);
    for (std::uint64_t k = 0; k < 64; ++k) {
        ChaosSchedule s = gen.generate(k, 123'456'789);
        s.workload = "lreg";
        ChaosSchedule parsed;
        std::string err;
        ASSERT_TRUE(parseScheduleSpec(writeScheduleSpec(s), parsed,
                                      err))
            << err;
        EXPECT_EQ(parsed, s);
    }
}

TEST(ScheduleSpec, ArmingKnobsRoundTrip)
{
    ChaosSchedule s;
    s.workload = "histogramfs";
    s.treatment = Treatment::SheriffProtect;
    s.sheriffBuggyDissolve = true;
    s.watchdog = 1;
    s.monitor = 0;
    s.watchdogTimeout = 123'456;
    s.analysisInterval = 50'000;
    s.recoverUpWindows = 3;
    s.events.push_back(
        {faultpoint::ptsbOversizeCommit, FaultSpec::always()});
    ChaosSchedule parsed;
    std::string err;
    ASSERT_TRUE(parseScheduleSpec(writeScheduleSpec(s), parsed, err))
        << err;
    EXPECT_EQ(parsed, s);
}

/**
 * Mutation fuzz of the reproducer-spec decoder: every mutant is
 * rejected, or decodes to a schedule s with parse(write(s)) == s, so
 * an accepted file holds nothing the writer would drop or change
 * (a truncated number, a NaN probability, a burst without a period).
 */
TEST(ScheduleSpec, MutationFuzzRoundTripsOrRejects)
{
    std::vector<std::string> corpus;
    ScheduleGenerator gen(5);
    for (std::uint64_t k = 0; k < 4; ++k) {
        ChaosSchedule s = gen.generate(k, 1'000'000);
        s.workload = "histogramfs";
        corpus.push_back(writeScheduleSpec(s));
    }
    corpus.push_back("workload = spinlockpool\ntreatment = htm-elide\n"
                     "threads = 4\nbuggy_dissolve = 1\nwatchdog = 0\n"
                     "monitor = 1\nwatchdog_timeout = 100000\n"
                     "interval = 50000\nrecover_up = 3\n"
                     "campaign_seed = 9\nindex = 2\n"
                     "event = htm.spurious_abort p=0.90000000000000002 "
                     "at=5 every=3 max=7 burst=2/9 window=10:20\n");
    test::Mutator mutator(std::move(corpus), 0xc4a05eedull,
                          test::Mutator::kTextOps);
    unsigned accepted = 0, rejected = 0;
    for (unsigned i = 0; i < 6000; ++i) {
        std::string m = mutator.mutate(i);
        ChaosSchedule s, back;
        std::string err;
        if (!parseScheduleSpec(m, s, err)) {
            ++rejected;
            continue;
        }
        ++accepted;
        ASSERT_TRUE(parseScheduleSpec(writeScheduleSpec(s), back, err))
            << "mutant " << i << ": " << err;
        ASSERT_EQ(back, s) << "mutant " << i << ":\n" << m;
    }
    // Both paths must actually be exercised.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

TEST(ScheduleSpec, RejectsValuesTheWriterWouldNotReproduce)
{
    ChaosSchedule s;
    std::string err;
    for (const char *bad :
         {"threads = 4294967297\n", "watchdog = 4294967295\n",
          "recover_up = -1\n", "seed = 1e3\n",
          "event = mem.clone_fail p=nan\n",
          "event = mem.clone_fail burst=5/0\n",
          "event = mem.clone_fail at=-1\n"}) {
        EXPECT_FALSE(parseScheduleSpec(
            std::string("workload = histogramfs\n") + bad, s, err))
            << bad;
    }
    ASSERT_TRUE(parseScheduleSpec(
        "workload = histogramfs\nwatchdog = -1\n", s, err))
        << err;
    EXPECT_EQ(s.watchdog, -1);
}

TEST(ScheduleSpec, ErrorsNameTheLine)
{
    ChaosSchedule s;
    std::string err;
    EXPECT_FALSE(parseScheduleSpec(
        "workload = x\nbogus_key = 1\n", s, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_FALSE(parseScheduleSpec(
        "workload = x\nevent = p.q rate=0.5\n", s, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_FALSE(parseScheduleSpec("seed = 1\n", s, err));
    EXPECT_NE(err.find("workload"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Minimizer (synthetic predicates: no runs involved)

namespace
{

ChaosSchedule
syntheticSchedule(unsigned events)
{
    ChaosSchedule s;
    s.workload = "synthetic";
    auto points = FaultInjector::allPoints();
    for (unsigned i = 0; i < events; ++i) {
        s.events.push_back(
            {points[i % points.size()].name,
             FaultSpec::withProbability(0.1 + i * 0.01)});
    }
    return s;
}

bool
hasEvent(const ChaosSchedule &s, const std::string &point)
{
    for (const ChaosEvent &ev : s.events) {
        if (ev.point == point)
            return true;
    }
    return false;
}

} // namespace

TEST(Minimize, FindsTheTwoCulpritsAmongEight)
{
    ChaosSchedule failing = syntheticSchedule(8);
    std::string a = failing.events[1].point;
    std::string c = failing.events[6].point;
    MinimizeStats stats;
    ChaosSchedule min = minimizeSchedule(
        failing,
        [&](const ChaosSchedule &s) {
            return hasEvent(s, a) && hasEvent(s, c);
        },
        &stats);
    ASSERT_EQ(min.events.size(), 2u);
    EXPECT_TRUE(hasEvent(min, a));
    EXPECT_TRUE(hasEvent(min, c));
    EXPECT_EQ(stats.originalEvents, 8u);
    EXPECT_EQ(stats.minimizedEvents, 2u);
    EXPECT_GT(stats.probes, 0u);
    // The run cell survives minimization untouched.
    EXPECT_EQ(min.workload, failing.workload);
    EXPECT_EQ(min.faultSeed, failing.faultSeed);
}

TEST(Minimize, SingleCulpritShrinksToOneEvent)
{
    ChaosSchedule failing = syntheticSchedule(5);
    std::string culprit = failing.events[3].point;
    ChaosSchedule min = minimizeSchedule(
        failing,
        [&](const ChaosSchedule &s) { return hasEvent(s, culprit); });
    ASSERT_EQ(min.events.size(), 1u);
    EXPECT_EQ(min.events[0].point, culprit);
}

TEST(Minimize, UnreproducibleFailureComesBackUnchanged)
{
    ChaosSchedule failing = syntheticSchedule(4);
    MinimizeStats stats;
    ChaosSchedule min = minimizeSchedule(
        failing, [](const ChaosSchedule &) { return false; }, &stats);
    EXPECT_EQ(min, failing);
    EXPECT_EQ(stats.minimizedEvents, 4u);
}

// ---------------------------------------------------------------------
// Oracle

namespace
{

RunResult
completedRun(std::uint64_t digest)
{
    RunResult r;
    r.outcome = RunOutcome::Completed;
    r.resultDigest = digest;
    return r;
}

} // namespace

TEST(Oracle, VerdictsCoverTheSeverityLadder)
{
    RunResult golden = completedRun(0xabcd);

    EXPECT_EQ(judge(golden, completedRun(0xabcd)).verdict,
              Verdict::Pass);
    EXPECT_EQ(judge(golden, completedRun(0x1111)).verdict,
              Verdict::DigestMismatch);

    RunResult invariant = completedRun(0xabcd);
    invariant.invariantViolations = 3;
    EXPECT_EQ(judge(golden, invariant).verdict,
              Verdict::InvariantViolation);

    RunResult livelock = completedRun(0xabcd);
    livelock.outcome = RunOutcome::Timeout;
    EXPECT_EQ(judge(golden, livelock).verdict, Verdict::Livelock);

    RunResult deadlock = completedRun(0xabcd);
    deadlock.outcome = RunOutcome::Deadlock;
    EXPECT_EQ(judge(golden, deadlock).verdict, Verdict::RunFailed);

    // An unjudgeable golden poisons nothing: NoDigest, not a failure.
    RunResult no_digest_golden = completedRun(0);
    Judgement j = judge(no_digest_golden, completedRun(0x2222));
    EXPECT_EQ(j.verdict, Verdict::NoDigest);
    EXPECT_FALSE(j.pass());
    EXPECT_FALSE(j.fail());

    RunResult hung_golden = completedRun(0xabcd);
    hung_golden.outcome = RunOutcome::Timeout;
    EXPECT_EQ(judge(hung_golden, completedRun(0xabcd)).verdict,
              Verdict::NoDigest);
}

TEST(Oracle, MismatchReasonNamesBothDigests)
{
    Judgement j = judge(completedRun(0xab), completedRun(0xcd));
    EXPECT_NE(j.reason.find("ab"), std::string::npos) << j.reason;
    EXPECT_NE(j.reason.find("cd"), std::string::npos) << j.reason;
}

TEST(Oracle, AnnotateTraceBracketsTheTimeline)
{
    RunResult res = completedRun(0x55);
    res.cycles = 9000;
    obs::TraceEvent mid;
    mid.time = 100;
    mid.kind = obs::EventKind::RepairEngage;
    res.traceEvents.push_back(mid);
    res.traceRecorded = 1;

    ChaosSchedule sched;
    sched.workload = "histogramfs";
    sched.campaignSeed = 77;
    sched.events.resize(2);

    annotateTrace(res, sched, {Verdict::Pass, "-"});
    ASSERT_EQ(res.traceEvents.size(), 3u);
    EXPECT_EQ(res.traceEvents.front().kind,
              obs::EventKind::ChaosSchedule);
    EXPECT_EQ(res.traceEvents.front().a0, 77u);
    EXPECT_EQ(res.traceEvents.front().a1, 2u);
    EXPECT_STREQ(res.traceEvents.front().detail, "histogramfs");
    EXPECT_EQ(res.traceEvents.back().kind,
              obs::EventKind::ChaosVerdict);
    EXPECT_EQ(res.traceEvents.back().time, 9000u);
    EXPECT_EQ(res.traceEvents.back().a0, 1u);
    EXPECT_EQ(res.traceEvents.back().a1, 0x55u);
    EXPECT_STREQ(res.traceEvents.back().detail, "pass");
    EXPECT_EQ(res.traceRecorded, 3u);
}

TEST(Oracle, AnnotateTraceIsANoOpOnUntracedRuns)
{
    RunResult res = completedRun(0x55);
    annotateTrace(res, ChaosSchedule{}, {Verdict::Pass, "-"});
    EXPECT_TRUE(res.traceEvents.empty());
    EXPECT_EQ(res.traceRecorded, 0u);
}

// ---------------------------------------------------------------------
// Campaign end-to-end (small but real runs)

namespace
{

CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.base.run.workload = "histogramfs";
    spec.base.run.treatment = Treatment::TmiProtect;
    spec.workloads = {"histogramfs"};
    spec.treatments = {Treatment::TmiProtect};
    spec.schedules = 4;
    spec.campaignSeed = 7;
    spec.minimizeFailures = false;
    return spec;
}

driver::Executor
inProcess(unsigned workers)
{
    driver::RunnerOptions opts;
    opts.workers = workers;
    opts.progress = false;
    return driver::Executor::inProcess(opts);
}

/** Column @p name of every data row of a campaign CSV. */
std::vector<std::string>
csvColumn(const std::string &csv, const std::string &name)
{
    std::istringstream in(csv);
    std::string line;
    std::getline(in, line);
    std::vector<std::string> header = driver::splitList(line);
    auto at = std::find(header.begin(), header.end(), name);
    EXPECT_NE(at, header.end()) << "no CSV column " << name;
    std::vector<std::string> cells;
    while (at != header.end() && std::getline(in, line))
        cells.push_back(driver::splitList(line).at(at - header.begin()));
    return cells;
}

} // namespace

TEST(Campaign, ValidateCatchesEmptyAxesAndBadCells)
{
    CampaignSpec spec = smallSpec();
    EXPECT_TRUE(spec.validate().empty());
    EXPECT_EQ(spec.totalRuns(), 5u); // 1 golden + 4 chaos

    spec.workloads = {"no-such-workload"};
    EXPECT_FALSE(spec.validate().empty());
    spec.workloads.clear();
    EXPECT_FALSE(spec.validate().empty());
    spec = smallSpec();
    spec.schedules = 0;
    EXPECT_FALSE(spec.validate().empty());
}

TEST(Campaign, TmiSurvivesTheSmallCampaignAndMatchesTheGolden)
{
    CampaignSpec spec = smallSpec();
    driver::Executor executor = inProcess(2);
    std::ostringstream csv;
    CampaignOutcome out = runCampaign(spec, executor, &csv);

    std::vector<std::string> kind = csvColumn(csv.str(), "kind");
    std::vector<std::string> verdict = csvColumn(csv.str(), "verdict");
    std::vector<std::string> digest = csvColumn(csv.str(), "digest");
    std::vector<std::string> golden_digest =
        csvColumn(csv.str(), "golden_digest");
    ASSERT_EQ(kind.size(), 5u);
    ASSERT_EQ(verdict.size(), 5u);
    ASSERT_EQ(digest.size(), 5u);
    ASSERT_EQ(golden_digest.size(), 5u);
    EXPECT_EQ(kind[0], "golden");
    ASSERT_NE(digest[0], hashHex(0));
    EXPECT_EQ(out.judged, 4u);
    EXPECT_TRUE(out.allPassed()) << csv.str();
    for (std::size_t i = 1; i < kind.size(); ++i) {
        EXPECT_EQ(kind[i], "chaos");
        EXPECT_EQ(verdict[i], verdictName(Verdict::Pass));
        EXPECT_EQ(digest[i], digest[0]);
        EXPECT_EQ(golden_digest[i], digest[0]);
    }
}

TEST(Campaign, CsvIsByteIdenticalAcrossWorkerCounts)
{
    CampaignSpec spec = smallSpec();
    std::string csv_by_workers[2];
    for (unsigned i = 0; i < 2; ++i) {
        driver::Executor executor = inProcess(i == 0 ? 1 : 4);
        std::ostringstream csv;
        runCampaign(spec, executor, &csv);
        csv_by_workers[i] = csv.str();
    }
    EXPECT_EQ(csv_by_workers[0], csv_by_workers[1]);
    // And the header is the one check_chaos.py pins.
    EXPECT_EQ(csv_by_workers[0].substr(
                  0, csv_by_workers[0].find('\n')),
              chaosCsvHeader());
}

// ---------------------------------------------------------------------
// Sharded campaign (process isolation + journals + resume)

namespace
{

/** RAII temp journal dir for the sharded-campaign tests. */
struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/tmi_chaos_shard_XXXXXX";
        path = ::mkdtemp(tmpl) ? tmpl : "";
    }
    ~TempDir()
    {
        std::error_code ec;
        if (!path.empty())
            std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

driver::ShardOptions
shardedOptions(const std::string &dir, unsigned shards)
{
    driver::ShardOptions opts;
    opts.journalDir = dir;
    opts.shards = shards;
    opts.runner.workers = 1;
    opts.onEvent = [](const std::string &) {};
    return opts;
}

} // namespace

TEST(ShardedCampaign, CsvMatchesTheInProcessCampaign)
{
    CampaignSpec spec = smallSpec();

    driver::Executor in_process = inProcess(1);
    std::ostringstream inproc;
    CampaignOutcome golden = runCampaign(spec, in_process, &inproc);

    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    driver::Executor sharded_executor =
        driver::Executor::sharded(shardedOptions(dir.path, 2));
    std::ostringstream sharded;
    CampaignOutcome out = runCampaign(spec, sharded_executor, &sharded);

    // Worker processes + journal merge leave no trace in the CSV.
    EXPECT_EQ(sharded.str(), inproc.str());
    EXPECT_EQ(out.judged, golden.judged);
    EXPECT_EQ(out.passed, golden.passed);
    EXPECT_EQ(out.failed, golden.failed);
    EXPECT_EQ(out.jobFailures, 0u);
    EXPECT_TRUE(out.clean());
    // Both executors count the goldens and the chaos phase.
    const driver::ShardRunStats &stats = sharded_executor.stats();
    EXPECT_EQ(in_process.stats().sweep.total, spec.totalRuns());
    EXPECT_EQ(stats.sweep.total, spec.totalRuns());
    EXPECT_EQ(stats.crashes, 0u);
    EXPECT_TRUE(in_process.stats().allOk());
    EXPECT_TRUE(stats.allOk());
}

TEST(ShardedCampaign, ResumeReplaysOnlyTheLostShard)
{
    CampaignSpec spec = smallSpec();

    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::ostringstream first;
    driver::Executor a_executor =
        driver::Executor::sharded(shardedOptions(dir.path, 2));
    CampaignOutcome a = runCampaign(spec, a_executor, &first);
    EXPECT_TRUE(a.clean());

    // A kill mid-campaign, modeled by its on-disk aftermath: one
    // chaos shard's journal never made it.
    std::filesystem::remove(
        driver::ShardSupervisor::journalPath(dir.path + "/chaos", 1));

    driver::ShardOptions resume = shardedOptions(dir.path, 2);
    resume.resume = true;
    driver::Executor b_executor = driver::Executor::sharded(resume);
    std::ostringstream second;
    CampaignOutcome b = runCampaign(spec, b_executor, &second);

    EXPECT_EQ(second.str(), first.str()); // byte-identical resume
    EXPECT_TRUE(b.clean());
    // Goldens (1) + chaos shard 0 (2 jobs) were already journaled.
    EXPECT_EQ(b_executor.stats().resumedJobs, 3u);
}

TEST(ShardedCampaign, PoisonedScheduleFailsTheCampaignVisibly)
{
    CampaignSpec spec = smallSpec();

    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    driver::ShardOptions opts = shardedOptions(dir.path, 2);
    // Chaos job 2 (goldens run fault-free, so keying on the armed
    // fault list spares the golden phase) kills its worker on every
    // attempt until the supervisor quarantines it.
    opts.childFaultHook =
        [](const driver::Job &job, std::uint64_t globalId, unsigned) {
            if (globalId == 2 && !job.config.run.faults.empty())
                std::abort();
        };

    std::ostringstream csv;
    driver::Executor executor = driver::Executor::sharded(opts);
    CampaignOutcome out = runCampaign(spec, executor, &csv);

    EXPECT_EQ(executor.stats().poisoned, 1u);
    EXPECT_EQ(executor.stats().crashes, 2u);
    EXPECT_EQ(out.jobFailures, 1u);
    EXPECT_EQ(out.failed, 1u); // judged RunFailed, not dropped
    EXPECT_FALSE(out.clean());
    EXPECT_NE(csv.str().find(",poisoned,"), std::string::npos);
    // The other three schedules still ran and passed.
    EXPECT_EQ(out.passed, 3u);
}

TEST(ShardedCampaign, ReproducersMatchInProcessAndSharded)
{
    // Every schedule of this cell trips the seeded dissolve-ordering
    // regression; phase 3 shrinks the first minimizeLimit of them.
    CampaignSpec spec;
    spec.base.run.workload = "histogramfs";
    spec.base.run.treatment = Treatment::SheriffProtect;
    spec.base.run.watchdog = 1;
    spec.base.run.watchdogTimeout = 100'000;
    spec.base.run.analysisInterval = 50'000;
    spec.workloads = {"histogramfs"};
    spec.treatments = {Treatment::SheriffProtect};
    spec.sheriffBuggyDissolve = true;
    spec.schedules = 4;
    spec.campaignSeed = 1;
    spec.generator.minEvents = 3;
    spec.generator.maxEvents = 4;
    spec.minimizeLimit = 2;

    // Pinned from the campaign before its two pipelines were merged
    // into one: the CSV's FNV-1a and both minimized specs.
    const char *const kCsvHash = "aabff4460380d354";
    const char *const kRepro[] = {
        R"(# tmi-chaos schedule (replay: tmi-chaos replay <file>)
workload = histogramfs
treatment = sheriff-protect
threads = 4
scale = 1
seed = 42
budget = 400000000000
fault_seed = 5784487560303719836
buggy_dissolve = 1
watchdog = 1
watchdog_timeout = 100000
interval = 50000
campaign_seed = 1
event = alloc.size_class_exhausted p=0.052528701625762557 window=1119232:2224567
)",
        R"(# tmi-chaos schedule (replay: tmi-chaos replay <file>)
workload = histogramfs
treatment = sheriff-protect
threads = 4
scale = 1
seed = 42
budget = 400000000000
fault_seed = 5261405265481498448
buggy_dissolve = 1
watchdog = 1
watchdog_timeout = 100000
interval = 50000
campaign_seed = 1
index = 1
event = perf.ring_overflow p=0.26611641063154778 window=879911:2281798
)"};
    const std::size_t kOriginalEvents[] = {3, 4};

    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    driver::Executor in_process = inProcess(1);
    driver::Executor sharded =
        driver::Executor::sharded(shardedOptions(dir.path, 2));
    for (driver::Executor *executor : {&in_process, &sharded}) {
        std::ostringstream csv;
        CampaignOutcome out = runCampaign(spec, *executor, &csv);
        ASSERT_GE(out.failed, 1u) << csv.str();
        EXPECT_EQ(out.failed, 4u);
        EXPECT_EQ(hashHex(Fnv1a().str(csv.str()).h), kCsvHash)
            << csv.str();
        EXPECT_EQ(executor->stats().sweep.total, spec.totalRuns());
        ASSERT_EQ(out.reproducers.size(), 2u);
        for (std::size_t i = 0; i < 2; ++i) {
            const CampaignOutcome::Reproducer &r = out.reproducers[i];
            EXPECT_EQ(writeScheduleSpec(r.minimized), kRepro[i]);
            EXPECT_EQ(r.stats.originalEvents, kOriginalEvents[i]);
            EXPECT_EQ(r.stats.minimizedEvents, 1u);
            EXPECT_EQ(r.stats.probes, 2u);
            EXPECT_EQ(r.judgement.verdict, Verdict::InvariantViolation)
                << r.judgement.reason;
        }
    }
}

// ---------------------------------------------------------------------
// RecoverUp x oracle (satellite: the ladder drops, recovers, and the
// oracle still certifies the end state)

TEST(Campaign, RecoverUpRunDropsClimbsBackAndMatchesTheGolden)
{
    ChaosSchedule sched;
    sched.workload = "histogramfs";
    sched.treatment = Treatment::TmiProtect;
    sched.recoverUpWindows = 2;
    sched.analysisInterval = 200'000;
    FaultSpec clone_fail;
    clone_fail.probability = 1.0;
    clone_fail.maxFires = 4;
    sched.events.push_back({faultpoint::memCloneFail, clone_fail});

    CampaignRow row = replaySchedule(sched);
    ASSERT_EQ(row.run.outcome, RunOutcome::Completed);
    // The clone faults exhausted one engage's retry budget...
    EXPECT_EQ(row.run.t2pAborts, 4u);
    EXPECT_GE(row.run.ladderDrops, 1u);
    // ...the ladder climbed back after two clean windows...
    EXPECT_GE(row.run.ladderRecovers, 1u);
    EXPECT_EQ(row.run.ladderRung, "detect-and-repair");
    // ...and the recovered run converged to the fault-free end state.
    EXPECT_EQ(row.judgement.verdict, Verdict::Pass)
        << row.judgement.reason;
    EXPECT_EQ(row.run.resultDigest, row.goldenDigest);
}

// ---------------------------------------------------------------------
// The seeded regression (satellite: the dissolve-ordering bug behind
// ExperimentConfig::sheriffBuggyDissolve must be caught and shrunk)

namespace
{

/** The scenario goldens/chaos/sheriff_dissolve_order.spec pins:
 *  inflated commits stretch the pre-spawn commit window so the
 *  watchdog-driven dissolve lands mid-spawn-loop. */
ChaosSchedule
dissolveOrderSchedule()
{
    ChaosSchedule sched;
    sched.workload = "histogramfs";
    sched.treatment = Treatment::SheriffProtect;
    sched.sheriffBuggyDissolve = true;
    sched.watchdog = 1;
    sched.watchdogTimeout = 100'000;
    sched.analysisInterval = 50'000;
    sched.events.push_back({faultpoint::ptsbOversizeCommit,
                            FaultSpec::withProbability(0.9)});
    return sched;
}

} // namespace

TEST(Regression, OracleCatchesTheSheriffDissolveOrderingBug)
{
    CampaignRow buggy = replaySchedule(dissolveOrderSchedule());
    EXPECT_TRUE(buggy.judgement.fail());
    EXPECT_EQ(buggy.judgement.verdict, Verdict::DigestMismatch)
        << buggy.judgement.reason;
    EXPECT_NE(buggy.run.resultDigest, buggy.goldenDigest);

    // The identical schedule against the fixed ordering passes: the
    // bug, not the faults, is what loses the writes.
    ChaosSchedule fixed = dissolveOrderSchedule();
    fixed.sheriffBuggyDissolve = false;
    CampaignRow ok = replaySchedule(fixed);
    EXPECT_EQ(ok.judgement.verdict, Verdict::Pass)
        << ok.judgement.reason;
}

TEST(Regression, MinimizerShrinksTheNoisySchedulePastTheNoise)
{
    // The failure wrapped in three bystander events, as a campaign
    // would surface it; ddmin must strip every bystander.
    ChaosSchedule noisy = dissolveOrderSchedule();
    noisy.events.push_back({faultpoint::perfDropRecord,
                            FaultSpec::withProbability(0.05)});
    FaultSpec every;
    every.everyNth = 700;
    noisy.events.push_back({faultpoint::memCloneFail, every});
    FaultSpec rare = FaultSpec::withProbability(0.001);
    rare.maxFires = 2;
    noisy.events.push_back({faultpoint::allocMetadataCorrupt, rare});

    CampaignRow failing = replaySchedule(noisy);
    ASSERT_TRUE(failing.judgement.fail()) << failing.judgement.reason;

    RunResult golden = completedRun(failing.goldenDigest);
    MinimizeStats stats;
    ChaosSchedule min = minimizeSchedule(
        noisy,
        [&](const ChaosSchedule &s) {
            return judge(golden, runExperiment(s.toConfig({}))).fail();
        },
        &stats);
    EXPECT_LE(min.events.size(), 3u);
    ASSERT_EQ(min.events.size(), 1u);
    EXPECT_EQ(min.events[0].point, faultpoint::ptsbOversizeCommit);
    EXPECT_EQ(stats.originalEvents, 4u);

    // The minimized schedule still reproduces, and still replays
    // clean once the bug is fixed -- reproducers pin the bug, not
    // the noise around it.
    CampaignRow repro = replaySchedule(min);
    EXPECT_EQ(repro.judgement.verdict, Verdict::DigestMismatch);
}
