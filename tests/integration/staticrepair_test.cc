/**
 * @file
 * End-to-end integration tests for Huron-style static repair: the
 * profile -> plan -> replay pipeline cuts residual HITMs hard on the
 * known false-sharing workloads, preserves results, and never engages
 * the runtime repair machinery.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "driver/journal.hh"

namespace tmi
{

namespace
{

ExperimentConfig
baseConfig(const std::string &workload)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.threads = 4;
    cfg.scale = 4;
    cfg.analysisInterval = 500'000;
    return cfg;
}

/** The journal encoding of every durable RunResult field. */
std::string
encoded(const RunResult &res)
{
    driver::JournalRecord rec;
    rec.run = res;
    return driver::encodeRecord(rec);
}

} // namespace

TEST(StaticRepair, HistogramProfileReplayCutsHitms)
{
    ExperimentConfig cfg = baseConfig("histogramfs");

    cfg.treatment = Treatment::Pthreads;
    RunResult base = runExperiment(cfg);
    ASSERT_TRUE(base.compatible);
    ASSERT_GT(base.hitmEvents, 1000u);

    cfg.treatment = Treatment::HuronStatic;
    RunResult hs = runExperiment(cfg);
    ASSERT_TRUE(hs.compatible) << "replay broke the program";
    ASSERT_EQ(hs.outcome, RunOutcome::Completed);

    // The replay result is the same computation.
    EXPECT_EQ(hs.resultDigest, base.resultDigest);
    // The plan found the contended site and redirected it.
    EXPECT_GE(hs.planSites, 1u);
    EXPECT_EQ(hs.planAppliedSites, hs.planSites);
    EXPECT_GE(hs.planRedirectedSites, 1u);
    EXPECT_GT(hs.planPaddingBytes, 0u);
    // The profile phase saw the baseline contention...
    EXPECT_GT(hs.planProfileHitms, base.hitmEvents / 2);
    // ...and the replay kills at least 5x of it (in practice ~1000x)
    // with zero runtime repairs.
    EXPECT_LE(hs.hitmEvents * 5, base.hitmEvents);
    EXPECT_EQ(hs.pagesProtected, 0u);
    EXPECT_EQ(hs.commits, 0u);
}

TEST(StaticRepair, PlanInReplaysIdentically)
{
    ExperimentConfig cfg = baseConfig("histogramfs");
    cfg.treatment = Treatment::HuronStatic;
    RunResult profiled = runExperiment(cfg);
    ASSERT_TRUE(profiled.compatible);
    ASSERT_FALSE(profiled.planText.empty());

    // Feed the synthesized plan back: profiling is skipped and the
    // replay agrees with the profiled run's replay on every durable
    // field but one.
    cfg.planIn = profiled.planText;
    RunResult replayed = runExperiment(cfg);
    ASSERT_TRUE(replayed.compatible);
    EXPECT_EQ(replayed.planText, profiled.planText);
    // A pure replay never profiled, so it reports no profile HITMs.
    EXPECT_EQ(replayed.planProfileHitms, 0u);
    profiled.planProfileHitms = 0;
    EXPECT_EQ(encoded(replayed), encoded(profiled));
}

TEST(StaticRepair, WedgedProfileReportsTheProfileRun)
{
    ExperimentConfig cfg = baseConfig("histogramfs");
    cfg.treatment = Treatment::HuronStatic;
    // Far too few cycles for the profiling run to finish.
    cfg.budget = 2'000'000;
    RunResult res = runExperiment(cfg);
    // The cell reports the wedged profiling run instead of replaying
    // from partial evidence: no plan, and its own HITMs as the
    // profile's.
    EXPECT_EQ(res.outcome, RunOutcome::Timeout);
    EXPECT_FALSE(res.compatible);
    EXPECT_TRUE(res.planText.empty());
    EXPECT_EQ(res.planSites, 0u);
    EXPECT_EQ(res.planAppliedSites, 0u);
    EXPECT_GT(res.hitmEvents, 0u);
    EXPECT_EQ(res.planProfileHitms, res.hitmEvents);
}

TEST(StaticRepair, SpreadRepairsDeclaredArrayGeometry)
{
    ExperimentConfig cfg = baseConfig("spinlockpool");

    cfg.treatment = Treatment::Pthreads;
    RunResult base = runExperiment(cfg);
    ASSERT_TRUE(base.compatible);
    ASSERT_GT(base.hitmEvents, 1000u);

    cfg.treatment = Treatment::HuronStatic;
    RunResult hs = runExperiment(cfg);
    ASSERT_TRUE(hs.compatible);
    // The tagged pool plans as an index-redirected array.
    EXPECT_NE(hs.planText.find("spread"), std::string::npos)
        << hs.planText;
    EXPECT_LE(hs.hitmEvents * 5, base.hitmEvents);
    EXPECT_EQ(hs.resultDigest, base.resultDigest);
}

TEST(StaticRepair, DeterministicAcrossRepeatedRuns)
{
    ExperimentConfig cfg = baseConfig("histogramfs");
    cfg.treatment = Treatment::HuronStatic;
    RunResult first = runExperiment(cfg);
    RunResult second = runExperiment(cfg);
    EXPECT_EQ(first.planText, second.planText);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.hitmEvents, second.hitmEvents);
}

} // namespace tmi
