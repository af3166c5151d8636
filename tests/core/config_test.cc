/**
 * @file
 * tmi::Config + ExperimentBuilder tests: round-trips, validation as
 * data (not fatal), the scalar-overlay rule, and an end-to-end traced
 * run through the new API.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/config.hh"
#include "fault/fault_injector.hh"
#include "obs/trace.hh"

using namespace tmi;

namespace
{

bool
hasField(const std::vector<ConfigError> &errors, const std::string &field)
{
    return std::any_of(errors.begin(), errors.end(),
                       [&field](const ConfigError &e) {
                           return e.field == field;
                       });
}

} // namespace

TEST(ConfigValidate, DefaultTemplatesAreValidOnceWorkloadIsSet)
{
    Config cfg;
    cfg.run.workload = "histogramfs";
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(ConfigValidate, CollectsEveryErrorWithFieldNames)
{
    Config cfg;
    cfg.run.workload = "no-such-workload";
    cfg.run.threads = 0;
    cfg.run.perfPeriod = 0;
    cfg.run.watchdog = 5;
    cfg.machine.quantum = 0;
    cfg.tmi.analysisInterval = 0;

    auto errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "run.workload"));
    EXPECT_TRUE(hasField(errors, "run.threads"));
    EXPECT_TRUE(hasField(errors, "run.perfPeriod"));
    EXPECT_TRUE(hasField(errors, "run.watchdog"));
    EXPECT_TRUE(hasField(errors, "machine.quantum"));
    EXPECT_TRUE(hasField(errors, "tmi.analysisInterval"));
    EXPECT_GE(errors.size(), 6u);

    // And the formatted form names every field.
    std::string text = formatConfigErrors(errors);
    EXPECT_NE(text.find("run.workload"), std::string::npos);
    EXPECT_NE(text.find("machine.quantum"), std::string::npos);
}

TEST(ConfigValidate, BadFaultSpecIsNamedPerPoint)
{
    Config cfg;
    cfg.run.workload = "histogramfs";
    cfg.run.faults.emplace_back(faultpoint::memCloneFail,
                                FaultSpec::withProbability(1.5));
    auto errors = cfg.validate();
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].field.find("mem.clone_fail"),
              std::string::npos);
}

TEST(ConfigValidate, ThreadsAndCoresCappedAt32)
{
    // The cache simulator names a line's holders in a 32-bit mask; a
    // 33rd core is a configuration error, not a crash.
    Config cfg;
    cfg.run.workload = "histogramfs";
    cfg.run.threads = 32;
    cfg.machine.cores = 32;
    EXPECT_TRUE(cfg.validate().empty());

    cfg.run.threads = 33;
    EXPECT_TRUE(hasField(cfg.validate(), "run.threads"));

    cfg.run.threads = 4;
    cfg.machine.cores = 33;
    EXPECT_TRUE(hasField(cfg.validate(), "machine.cores"));
}

TEST(ConfigValidate, ScaleBoundedBothWays)
{
    // Zero runs nothing; anything past maxScale would run until
    // killed. Both are config errors naming run.scale.
    Config cfg;
    cfg.run.workload = "histogramfs";
    cfg.run.scale = maxScale;
    EXPECT_TRUE(cfg.validate().empty());

    for (std::uint64_t scale :
         {std::uint64_t{0}, maxScale + 1, ~std::uint64_t{0}}) {
        cfg.run.scale = scale;
        EXPECT_TRUE(hasField(cfg.validate(), "run.scale")) << scale;
    }
}

TEST(ConfigValidate, CacheGeometryNeedsPowerOfTwoSetsAndWays)
{
    Config cfg;
    cfg.run.workload = "histogramfs";
    cfg.machine.cache.l1Sets = 1;
    cfg.machine.cache.llcSets = 1;
    cfg.machine.cache.l1Ways = 1;
    cfg.machine.cache.llcWays = 1;
    EXPECT_TRUE(cfg.validate().empty());

    for (unsigned sets : {0u, 3u, 48u, 8191u}) {
        Config bad = cfg;
        bad.machine.cache.l1Sets = sets;
        EXPECT_TRUE(hasField(bad.validate(), "machine.cache.l1Sets"))
            << sets;
        bad = cfg;
        bad.machine.cache.llcSets = sets;
        EXPECT_TRUE(hasField(bad.validate(), "machine.cache.llcSets"))
            << sets;
    }

    Config bad = cfg;
    bad.machine.cache.l1Ways = 0;
    EXPECT_TRUE(hasField(bad.validate(), "machine.cache.l1Ways"));
    bad = cfg;
    bad.machine.cache.llcWays = 0;
    EXPECT_TRUE(hasField(bad.validate(), "machine.cache.llcWays"));
}

TEST(Builder, CheckReportsWithoutDying)
{
    auto errors =
        Experiment::builder().workload("nope").threads(0).check();
    EXPECT_GE(errors.size(), 2u);
}

TEST(Builder, RoundTripsThroughConfig)
{
    Config cfg = Experiment::builder()
                     .workload("lreg")
                     .treatment(Treatment::TmiProtect)
                     .threads(8)
                     .scale(3)
                     .perfPeriod(50)
                     .repairThreshold(123.0)
                     .analysisInterval(1'000'000)
                     .budget(5'000'000'000ULL)
                     .seed(99)
                     .dumpStats(true)
                     .fault(faultpoint::memCloneFail,
                            FaultSpec::once(2))
                     .faultSeed(7)
                     .watchdog(1)
                     .monitor(0)
                     .trace(true)
                     .build();

    EXPECT_EQ(cfg.run.workload, "lreg");
    EXPECT_EQ(cfg.run.threads, 8u);
    EXPECT_EQ(cfg.run.perfPeriod, 50u);
    EXPECT_TRUE(cfg.run.trace.enabled);
    ASSERT_EQ(cfg.run.faults.size(), 1u);
    EXPECT_EQ(cfg.run.faults[0].second, FaultSpec::once(2));

    // builder(cfg) -> build() reproduces the config exactly, and ==
    // is deep: tweaking one nested field breaks equality.
    Config back = Experiment::builder(cfg).build();
    EXPECT_EQ(back, cfg);
    back.tmi.detector.samplePeriod += 1;
    EXPECT_FALSE(back == cfg);
}

TEST(Builder, MachineTemplateMirrorsScalarsButLaterSettersWin)
{
    MachineConfig mc;
    mc.cores = 6;
    mc.perf.period = 55;
    mc.trace.enabled = true;
    mc.trace.ringCapacity = 128;

    Config cfg = Experiment::builder()
                     .workload("histogramfs")
                     .machine(mc)
                     .build();
    // The template's scalars were mirrored into the run view, so the
    // overlay in runExperiment() keeps them.
    EXPECT_EQ(cfg.run.threads, 6u);
    EXPECT_EQ(cfg.run.perfPeriod, 55u);
    EXPECT_TRUE(cfg.run.trace.enabled);
    EXPECT_EQ(cfg.run.trace.ringCapacity, 128u);

    // A scalar setter after machine() overrides just that field.
    Config cfg2 = Experiment::builder()
                      .workload("histogramfs")
                      .machine(mc)
                      .perfPeriod(77)
                      .build();
    EXPECT_EQ(cfg2.run.perfPeriod, 77u);
    EXPECT_EQ(cfg2.run.threads, 6u);
}

TEST(Builder, DetectorTemplateSyncsRepairThreshold)
{
    DetectorConfig dc;
    dc.repairThreshold = 42.0;
    Config cfg = Experiment::builder()
                     .workload("histogramfs")
                     .detector(dc)
                     .build();
    EXPECT_DOUBLE_EQ(cfg.run.repairThreshold, 42.0);
    EXPECT_DOUBLE_EQ(cfg.tmi.detector.repairThreshold, 42.0);
}

TEST(BuilderRun, TracedFaultedRunCapturesTheWholeStory)
{
    if (!obs::TraceRecorder::compiledIn)
        GTEST_SKIP() << "built with TMI_TRACING=0";
    RunResult res = Experiment::builder()
                        .workload("histogramfs")
                        .treatment(Treatment::TmiProtect)
                        .threads(2)
                        .scale(1)
                        .analysisInterval(300'000)
                        .fault(faultpoint::memCloneFail,
                               FaultSpec::always())
                        .trace(true)
                        .run();

    // The fault cannot cost correctness: the ladder absorbs it.
    EXPECT_TRUE(res.compatible);
    EXPECT_EQ(res.ladderRung, "detect-only");
    EXPECT_GT(res.faultFires, 0u);

    // The timeline tells the same story, in time order.
    ASSERT_FALSE(res.traceEvents.empty());
    EXPECT_GT(res.traceRecorded, 0u);
    auto count = [&res](obs::EventKind kind) {
        std::size_t n = 0;
        for (const auto &ev : res.traceEvents)
            n += ev.kind == kind;
        return n;
    };
    EXPECT_GT(count(obs::EventKind::FaultFire), 0u);
    EXPECT_GT(count(obs::EventKind::T2pRollback), 0u);
    EXPECT_EQ(count(obs::EventKind::LadderDrop), res.ladderDrops);
    for (std::size_t i = 1; i < res.traceEvents.size(); ++i) {
        EXPECT_LE(res.traceEvents[i - 1].time,
                  res.traceEvents[i].time);
    }

    // The metrics registry carries both imported stats and the
    // trace's per-kind totals.
    ASSERT_NE(res.metrics, nullptr);
    double v = 0;
    ASSERT_TRUE(res.metrics->value("obs.event.fault.fire", v));
    EXPECT_DOUBLE_EQ(v, static_cast<double>(res.faultFires));
    ASSERT_TRUE(res.metrics->value("obs.trace.recorded", v));
    EXPECT_DOUBLE_EQ(v, static_cast<double>(res.traceRecorded));
    EXPECT_TRUE(res.metrics->value("machine.hitmEvents", v));
}

TEST(BuilderRun, TracingOffCostsNothingAndCapturesNothing)
{
    RunResult res = Experiment::builder()
                        .workload("histogramfs")
                        .treatment(Treatment::TmiProtect)
                        .threads(2)
                        .scale(1)
                        .run();
    EXPECT_TRUE(res.traceEvents.empty());
    EXPECT_EQ(res.traceRecorded, 0u);
    EXPECT_EQ(res.metrics, nullptr);
}

TEST(BuilderRun, FaultFireCountsNeedNoTracing)
{
    // The chaos oracle consumes fault.fires from the metrics
    // registry; those counts must exist on every build, including
    // TMI_TRACING=0, as long as stats are requested -- they come from
    // the injector itself, not from FaultFire trace events.
    FaultSpec clone_fail;
    clone_fail.probability = 1.0;
    clone_fail.maxFires = 2;
    RunResult res = Experiment::builder()
                        .workload("histogramfs")
                        .treatment(Treatment::TmiProtect)
                        .threads(2)
                        .scale(1)
                        .fault(faultpoint::memCloneFail, clone_fail)
                        .dumpStats(true)
                        .run();
    EXPECT_TRUE(res.traceEvents.empty());
    ASSERT_NE(res.metrics, nullptr);
    double fires = 0;
    ASSERT_TRUE(res.metrics->value("fault.fires", fires));
    EXPECT_EQ(fires, 2.0);
    double point_fires = 0;
    ASSERT_TRUE(res.metrics->value("fault.fires.mem.clone_fail",
                                   point_fires));
    EXPECT_EQ(point_fires, 2.0);
    EXPECT_EQ(res.faultFires, 2u);
}

TEST(BuilderRun, TracedRunIsCycleIdenticalToUntraced)
{
    if (!obs::TraceRecorder::compiledIn)
        GTEST_SKIP() << "built with TMI_TRACING=0";
    auto cell = [] {
        return Experiment::builder()
            .workload("histogramfs")
            .treatment(Treatment::TmiProtect)
            .threads(2)
            .scale(1);
    };
    RunResult off = cell().run();
    RunResult on = cell().trace(true).run();
    // Tracing charges no simulated cycles: same clock, same events.
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.hitmEvents, off.hitmEvents);
    EXPECT_GT(on.traceRecorded, 0u);
}

TEST(BuilderRun, LegacyExperimentConfigPathStillWorks)
{
    ExperimentConfig cfg;
    cfg.workload = "histogramfs";
    cfg.treatment = Treatment::Pthreads;
    cfg.threads = 2;
    cfg.scale = 1;
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.compatible);
}
