/**
 * @file
 * Parameterized integration sweeps: repair must work across thread
 * counts, page sizes, and sampling periods, and the experiment
 * driver's stats plumbing must deliver.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace tmi
{

namespace
{

ExperimentConfig
sweepConfig(const std::string &workload)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.threads = 4;
    cfg.scale = 4;
    cfg.analysisInterval = 500'000;
    return cfg;
}

} // namespace

/** Thread-count sweep over the headline repair result. */
class ThreadSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ThreadSweep, RepairWorksAtAnyWidth)
{
    ExperimentConfig cfg = sweepConfig("histogramfs");
    cfg.threads = GetParam();
    cfg.treatment = Treatment::Pthreads;
    RunResult base = runExperiment(cfg);
    ASSERT_TRUE(base.compatible);

    cfg.treatment = Treatment::TmiProtect;
    RunResult tmi = runExperiment(cfg);
    ASSERT_TRUE(tmi.compatible);
    EXPECT_TRUE(tmi.repairActive);
    if (GetParam() > 1) {
        EXPECT_GT(speedup(base, tmi), 1.1);
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         ::testing::Values(2u, 4u, 8u));

/** Page-size sweep: repair must also work with 2 MB huge pages. */
TEST(PageSizeSweep, HugePageRepairWorks)
{
    ExperimentConfig cfg = sweepConfig("lreg");
    cfg.pageShift = hugePageShift;
    cfg.treatment = Treatment::Pthreads;
    RunResult base = runExperiment(cfg);
    ASSERT_TRUE(base.compatible);

    cfg.treatment = Treatment::TmiProtect;
    RunResult tmi = runExperiment(cfg);
    ASSERT_TRUE(tmi.compatible);
    EXPECT_TRUE(tmi.repairActive);
    EXPECT_GT(speedup(base, tmi), 1.2);
    // Targeted protection at 2 MB granularity: one huge page covers
    // the whole args array.
    EXPECT_LE(tmi.pagesProtected, 2u);
}

TEST(PageSizeSweep, HugePagesReduceFaults)
{
    ExperimentConfig cfg = sweepConfig("fft");
    cfg.scale = 1;
    cfg.treatment = Treatment::TmiAlloc;
    cfg.pageShift = smallPageShift;
    RunResult small = runExperiment(cfg);
    cfg.pageShift = hugePageShift;
    RunResult huge = runExperiment(cfg);
    ASSERT_TRUE(small.compatible);
    ASSERT_TRUE(huge.compatible);
    EXPECT_GT(small.softFaults, 100 * huge.softFaults);
    EXPECT_LT(huge.cycles, small.cycles);
}

/** Sampling-period sweep: detection still fires at coarse periods. */
class PeriodSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PeriodSweep, DetectionSurvivesPeriod)
{
    ExperimentConfig cfg = sweepConfig("histogramfs");
    cfg.perfPeriod = GetParam();
    cfg.treatment = Treatment::TmiProtect;
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.compatible);
    EXPECT_TRUE(res.repairActive)
        << "period " << GetParam() << " missed the false sharing";
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweep,
                         ::testing::Values(1u, 10u, 100u, 1000u));

TEST(StatsPlumbing, DumpStatsCapturesComponents)
{
    ExperimentConfig cfg = sweepConfig("lreg");
    cfg.treatment = Treatment::TmiProtect;
    cfg.dumpStats = true;
    RunResult res = runExperiment(cfg);
    ASSERT_TRUE(res.compatible);
    // The dump names stats from every layer.
    EXPECT_NE(res.statsText.find("hitmEvents"), std::string::npos);
    EXPECT_NE(res.statsText.find("softFaults"), std::string::npos);
    EXPECT_NE(res.statsText.find("t2pConversions"), std::string::npos);
    EXPECT_NE(res.statsText.find("recordsClassified"),
              std::string::npos);
    EXPECT_NE(res.statsText.find("contextSwitches"),
              std::string::npos);
}

TEST(StatsPlumbing, NoDumpByDefault)
{
    ExperimentConfig cfg = sweepConfig("swaptions");
    cfg.scale = 1;
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.statsText.empty());
}

TEST(Determinism, ResultsIdenticalAcrossTreatRuns)
{
    // The whole stack is deterministic: same config -> same cycles,
    // HITM count, commits, and repair timeline.
    ExperimentConfig cfg = sweepConfig("leveldb");
    cfg.treatment = Treatment::TmiProtect;
    RunResult a = runExperiment(cfg);
    RunResult b = runExperiment(cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.hitmEvents, b.hitmEvents);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.repairStartCycles, b.repairStartCycles);
    EXPECT_EQ(a.pagesProtected, b.pagesProtected);
}

TEST(Determinism, SeedChangesExecutionButNotCorrectness)
{
    ExperimentConfig cfg = sweepConfig("leveldb");
    RunResult a = runExperiment(cfg);
    cfg.seed = 1234567;
    RunResult b = runExperiment(cfg);
    EXPECT_TRUE(a.compatible);
    EXPECT_TRUE(b.compatible);
    EXPECT_NE(a.cycles, b.cycles); // different keys, different run
}

} // namespace tmi
