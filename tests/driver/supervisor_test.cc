/**
 * @file
 * Shard supervisor tests: the merged CSV must be byte-identical to an
 * uninterrupted in-process run for any shard count, through injected
 * worker crashes, quarantine of poison jobs, and checkpoint/resume
 * from partially written journals; and a resume whose jobs or
 * journals differ from the campaign on disk must be refused. Crashes
 * are injected with the test-only ShardOptions::childFaultHook,
 * which runs inside the forked worker and may abort() it mid-job.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "driver/supervisor.hh"

namespace tmi::driver
{

namespace
{

namespace fs = std::filesystem;

/** Same 8-cell matrix the determinism test sweeps. */
SweepSpec
matrixSpec()
{
    SweepSpec spec;
    spec.workloads = {"histogramfs", "spinlockpool"};
    spec.treatments = {Treatment::Pthreads, Treatment::TmiProtect};
    spec.base.run.scale = 1;
    spec.base.run.analysisInterval = 300'000;
    spec.faultPoints = {"mem.frame_exhausted"};
    spec.faultRates = {0.0, 0.5};
    return spec;
}

/** Uninterrupted single-process golden CSV for @p spec. */
std::string
runnerCsv(const SweepSpec &spec)
{
    std::ostringstream os;
    SweepCsvSink sink(os);
    RunnerOptions opts;
    opts.workers = 1;
    Runner runner(opts);
    runner.run(spec.expand(), &sink);
    return os.str();
}

/** One deterministic child execution stream per shard: jobs journal
 *  strictly in id order, which the crash-attribution tests rely on. */
ShardOptions
baseOptions(const std::string &dir)
{
    ShardOptions opts;
    opts.journalDir = dir;
    opts.checkpointEvery = 2;
    opts.runner.workers = 1;
    opts.onEvent = [](const std::string &) {}; // quiet tests
    return opts;
}

class SupervisorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/tmi_supervisor_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        _dir = tmpl;
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(_dir, ec);
    }

    std::string
    subdir(const char *name) const
    {
        return _dir + "/" + name;
    }

    std::string _dir;
};

/** Run @p spec under a supervisor; returns the merged CSV. */
std::string
supervisedCsv(const SweepSpec &spec, ShardOptions opts,
              ShardRunStats *statsOut = nullptr)
{
    std::ostringstream os;
    SweepCsvSink sink(os);
    ShardSupervisor supervisor(std::move(opts));
    ShardRunStats stats = supervisor.run(spec.expand(), &sink);
    if (statsOut)
        *statsOut = stats;
    return os.str();
}

/** Child-side attempt recorder: appends one "id\n" line per job
 *  attempt to @p path. The hook runs in the forked worker, so the
 *  only channel back to the test is the filesystem. */
std::function<void(const Job &, std::uint64_t, unsigned)>
attemptRecorder(const std::string &path)
{
    return [path](const Job &, std::uint64_t globalId, unsigned) {
        int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            char buf[32];
            int n = std::snprintf(buf, sizeof(buf), "%llu\n",
                                  static_cast<unsigned long long>(
                                      globalId));
            [[maybe_unused]] ssize_t w = ::write(fd, buf, n);
            ::close(fd);
        }
    };
}

std::set<std::uint64_t>
readAttempts(const std::string &path)
{
    std::set<std::uint64_t> ids;
    std::ifstream is(path);
    std::uint64_t id;
    while (is >> id)
        ids.insert(id);
    return ids;
}

} // namespace

TEST(ShardRangeTest, PartitionIsContiguousAndComplete)
{
    for (unsigned shards : {1u, 3u, 4u, 7u}) {
        std::uint64_t next = 0;
        for (unsigned s = 0; s < shards; ++s) {
            auto [begin, end] =
                ShardSupervisor::shardRange(10, shards, s);
            EXPECT_EQ(begin, next);
            EXPECT_GE(end, begin);
            next = end;
        }
        EXPECT_EQ(next, 10u);
    }
}

TEST_F(SupervisorTest, MergedCsvMatchesRunnerForAnyShardCount)
{
    SweepSpec spec = matrixSpec();
    std::string golden = runnerCsv(spec);

    ShardRunStats stats;
    EXPECT_EQ(
        supervisedCsv(spec, baseOptions(subdir("s1")), &stats),
        golden);
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_TRUE(stats.allOk());

    ShardOptions four = baseOptions(subdir("s4"));
    four.shards = 4;
    EXPECT_EQ(supervisedCsv(spec, four, &stats), golden);
    EXPECT_EQ(stats.shards, 4u);
    EXPECT_TRUE(stats.allOk());
    EXPECT_EQ(stats.crashes, 0u);

    // More shards than jobs clamps to one job per shard.
    ShardOptions many = baseOptions(subdir("s64"));
    many.shards = 64;
    EXPECT_EQ(supervisedCsv(spec, many, &stats), golden);
    EXPECT_EQ(stats.shards, spec.matrixSize());
}

TEST_F(SupervisorTest, CrashedShardIsRequeuedNotLost)
{
    SweepSpec spec = matrixSpec();
    std::string golden = runnerCsv(spec);

    // Generation 0 of the owning shard aborts on job 3; the respawn
    // (generation 1) lets it through.
    ShardOptions opts = baseOptions(subdir("crash1"));
    opts.shards = 2;
    opts.childFaultHook = [](const Job &, std::uint64_t globalId,
                             unsigned generation) {
        if (globalId == 3 && generation == 0)
            std::abort();
    };

    ShardRunStats stats;
    std::string csv = supervisedCsv(spec, opts, &stats);
    EXPECT_EQ(csv, golden); // crash leaves no trace in the results
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.respawns, 1u);
    EXPECT_EQ(stats.poisoned, 0u);
    EXPECT_TRUE(stats.allOk());
}

TEST_F(SupervisorTest, PoisonJobIsQuarantinedAfterSecondKill)
{
    SweepSpec spec = matrixSpec();

    // Job 3 kills its shard on every attempt, every generation.
    ShardOptions opts = baseOptions(subdir("poison"));
    opts.shards = 2;
    opts.killBudget = 2;
    opts.childFaultHook = [](const Job &, std::uint64_t globalId,
                             unsigned) {
        if (globalId == 3)
            std::abort();
    };

    ShardRunStats stats;
    std::string csv = supervisedCsv(spec, opts, &stats);
    EXPECT_EQ(stats.crashes, 2u);
    // One respawn between the kills; after the quarantine the shard
    // has nothing left and settles without a third generation.
    EXPECT_EQ(stats.respawns, 1u);
    EXPECT_EQ(stats.poisoned, 1u);
    EXPECT_EQ(stats.sweep.poisoned, 1u);
    EXPECT_EQ(stats.sweep.ok, spec.matrixSize() - 1);
    EXPECT_FALSE(stats.allOk());

    // The poison job appears in the CSV -- never silently dropped --
    // and every sibling row is byte-identical to the clean run.
    std::istringstream merged(csv), clean(runnerCsv(spec));
    std::string mline, cline;
    std::uint64_t row = 0, poisonRows = 0;
    while (std::getline(merged, mline) &&
           std::getline(clean, cline)) {
        if (row == 3 + 1) { // header + job id
            EXPECT_NE(mline.find(",poisoned,"), std::string::npos)
                << mline;
            ++poisonRows;
        } else {
            EXPECT_EQ(mline, cline) << "row " << row;
        }
        ++row;
    }
    EXPECT_EQ(row, spec.matrixSize() + 1);
    EXPECT_EQ(poisonRows, 1u);
}

TEST_F(SupervisorTest, ResumeRunsExactlyTheUnjournaledJobs)
{
    SweepSpec spec = matrixSpec();
    std::string golden = runnerCsv(spec);

    // Full 4-shard campaign (2 jobs per shard) into dir A.
    ShardOptions first = baseOptions(subdir("A"));
    first.shards = 4;
    EXPECT_EQ(supervisedCsv(spec, first), golden);

    // Simulate a supervisor killed mid-campaign by rebuilding dir B
    // from A with damaged journals:
    //   shard 0: complete          -> jobs 0,1 resumed
    //   shard 1: journal missing   -> jobs 2,3 re-run
    //   shard 2: torn mid-record   -> job 4 resumed, job 5 re-run
    //   shard 3: complete          -> jobs 6,7 resumed
    std::string dirB = subdir("B");
    fs::create_directories(dirB);
    fs::copy_file(subdir("A") + "/MANIFEST", dirB + "/MANIFEST");
    for (unsigned s : {0u, 2u, 3u}) {
        fs::copy_file(ShardSupervisor::journalPath(subdir("A"), s),
                      ShardSupervisor::journalPath(dirB, s));
    }
    std::string shard2 = ShardSupervisor::journalPath(dirB, 2);
    fs::resize_file(shard2, fs::file_size(shard2) - 5);

    ShardOptions resume = baseOptions(dirB);
    resume.shards = 2; // ignored: the manifest pins 4
    resume.resume = true;
    std::string attempts = dirB + "/attempts.txt";
    resume.childFaultHook = attemptRecorder(attempts);

    ShardRunStats stats;
    std::string csv = supervisedCsv(spec, resume, &stats);
    EXPECT_EQ(csv, golden); // byte-identical after kill + resume
    EXPECT_EQ(stats.shards, 4u);
    EXPECT_EQ(stats.resumedJobs, 5u);
    EXPECT_GE(stats.tornRecords, 1u);
    EXPECT_TRUE(stats.allOk());
    EXPECT_EQ(readAttempts(attempts),
              (std::set<std::uint64_t>{2, 3, 5}));
}

TEST_F(SupervisorTest, ResumeOfCompleteCampaignRerunsNothing)
{
    SweepSpec spec = matrixSpec();
    std::string golden = runnerCsv(spec);

    ShardOptions first = baseOptions(subdir("done"));
    first.shards = 2;
    EXPECT_EQ(supervisedCsv(spec, first), golden);

    ShardOptions again = baseOptions(subdir("done"));
    again.shards = 2;
    again.resume = true;
    std::string attempts = subdir("done") + "/attempts.txt";
    again.childFaultHook = attemptRecorder(attempts);

    ShardRunStats stats;
    EXPECT_EQ(supervisedCsv(spec, again, &stats), golden);
    EXPECT_EQ(stats.resumedJobs, spec.matrixSize());
    EXPECT_TRUE(readAttempts(attempts).empty());
}

TEST_F(SupervisorTest, FreshRunRefusesAUsedDirectory)
{
    SweepSpec spec = matrixSpec();
    ShardOptions first = baseOptions(subdir("used"));
    supervisedCsv(spec, first);

    ShardOptions second = baseOptions(subdir("used"));
    EXPECT_THROW(supervisedCsv(spec, second), std::runtime_error);
}

TEST_F(SupervisorTest, ResumeRefusesAMismatchedSpec)
{
    SweepSpec spec = matrixSpec();
    ShardOptions first = baseOptions(subdir("pin"));
    supervisedCsv(spec, first);

    SweepSpec other = matrixSpec();
    other.faultRates = {0.0, 0.25}; // different expansion
    ShardOptions resume = baseOptions(subdir("pin"));
    resume.resume = true;
    EXPECT_THROW(supervisedCsv(other, resume), std::runtime_error);
}

/** A one-job campaign with an armed fault, so every job-config
 *  field a resume must pin has something to change. */
SweepSpec
pinnedSpec()
{
    SweepSpec spec;
    spec.workloads = {"histogramfs"};
    spec.treatments = {Treatment::Pthreads};
    spec.base.run.scale = 1;
    FaultSpec fault;
    fault.probability = 0.5;
    fault.windowEnd = 1'000'000;
    spec.base.run.faults = {{"mem.frame_exhausted", fault}};
    return spec;
}

/** The message of the runtime_error a resume of @p spec throws. */
std::string
resumeRefusal(const SweepSpec &spec, const std::string &dir)
{
    ShardOptions resume = baseOptions(dir);
    resume.resume = true;
    try {
        supervisedCsv(spec, resume);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST_F(SupervisorTest, ResumeRefusesAnyChangedJobField)
{
    std::string dir = subdir("fields");
    supervisedCsv(pinnedSpec(), baseOptions(dir));

    // Each case changes exactly one field; the refusal names it.
    struct Case
    {
        const char *field;
        void (*change)(Config &);
    };
    const Case cases[] = {
        {"run.params",
         [](Config &c) { c.run.params = {{"iterations", "3"}}; }},
        {"run.placement",
         [](Config &c) { c.run.placement = PlacementPolicy::Pack; }},
        {"run.planIn", [](Config &c) { c.run.planIn = "plan v1\n"; }},
        {"run.analysisInterval",
         [](Config &c) { c.run.analysisInterval = 500'000; }},
        {"run.repairThreshold",
         [](Config &c) { c.run.repairThreshold *= 2; }},
        {"run.allocator",
         [](Config &c) { c.run.allocator = AllocatorKind::GlibcLike; }},
        {"run.pageShift", [](Config &c) { c.run.pageShift = 21; }},
        {"run.faults",
         [](Config &c) { c.run.faults[0].second.probability = 0.25; }},
        {"run.faults",
         [](Config &c) { c.run.faults[0].second.windowEnd = 2'000'000; }},
        {"tmi.robust.recoverUpWindows",
         [](Config &c) { c.tmi.robust.recoverUpWindows = 3; }},
    };
    for (const Case &c : cases) {
        SweepSpec changed = pinnedSpec();
        c.change(changed.base);
        std::string why = resumeRefusal(changed, dir);
        EXPECT_NE(why.find(std::string("spec mismatch in ") + c.field),
                  std::string::npos)
            << c.field << ": " << why;
    }
    // The unchanged spec still resumes.
    EXPECT_EQ(resumeRefusal(pinnedSpec(), dir), "");
}

TEST_F(SupervisorTest, ResumeRefusesJournalsOfAnotherSchema)
{
    SweepSpec spec = matrixSpec();
    ShardOptions first = baseOptions(subdir("old"));
    first.shards = 2;
    supervisedCsv(spec, first);

    // Relabel both journals as an older format version.
    std::vector<std::string> before;
    for (unsigned s = 0; s < 2; ++s) {
        std::string path = ShardSupervisor::journalPath(subdir("old"), s);
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.write("TMIJRNL3", 8);
        }
        std::ifstream is(path, std::ios::binary);
        before.emplace_back(std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>());
    }

    std::string why = resumeRefusal(spec, subdir("old"));
    EXPECT_NE(why.find("TMIJRNL3"), std::string::npos) << why;
    EXPECT_NE(why.find(journalSchemaName()), std::string::npos) << why;
    EXPECT_NE(why.find("--journal-dir"), std::string::npos) << why;
    for (unsigned s = 0; s < 2; ++s) {
        std::ifstream is(ShardSupervisor::journalPath(subdir("old"), s),
                         std::ios::binary);
        EXPECT_EQ(std::string(std::istreambuf_iterator<char>(is),
                              std::istreambuf_iterator<char>()),
                  before[s]);
    }
}

} // namespace tmi::driver
