/**
 * @file
 * Unit tests for the declarative sweep specification: matrix
 * expansion (order, ids, fault folding), validation, and the shared
 * key=value parsing used by both spec files and tmi-sweep flags.
 */

#include <gtest/gtest.h>

#include "common/mutation_fuzz.hh"
#include "driver/sweep.hh"

namespace tmi::driver
{

TEST(SweepSpec, ExpandsRowMajorWithDenseIds)
{
    SweepSpec spec;
    spec.workloads = {"histogramfs", "spinlockpool"};
    spec.treatments = {Treatment::Pthreads, Treatment::TmiProtect};
    spec.seeds = {1, 2, 3};

    ASSERT_EQ(spec.matrixSize(), 12u);
    std::vector<Job> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 12u);

    // Dense ids in expansion order; workload is the outermost axis,
    // seed the innermost.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].id, i);
    EXPECT_EQ(jobs[0].config.run.workload, "histogramfs");
    EXPECT_EQ(jobs[0].config.run.seed, 1u);
    EXPECT_EQ(jobs[1].config.run.seed, 2u);
    EXPECT_EQ(jobs[3].config.run.treatment, Treatment::TmiProtect);
    EXPECT_EQ(jobs[6].config.run.workload, "spinlockpool");
    EXPECT_EQ(jobs[11].config.run.seed, 3u);
}

TEST(SweepSpec, EmptyAxesFallBackToBaseConfig)
{
    SweepSpec spec;
    spec.workloads = {"histogramfs"};
    spec.base.run.treatment = Treatment::TmiDetect;
    spec.base.run.scale = 7;
    spec.base.run.seed = 99;

    std::vector<Job> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].config.run.treatment, Treatment::TmiDetect);
    EXPECT_EQ(jobs[0].config.run.scale, 7u);
    EXPECT_EQ(jobs[0].config.run.seed, 99u);
    EXPECT_EQ(jobs[0].scenario(), "none");
}

TEST(SweepSpec, FaultAxisFoldsIntoJobConfig)
{
    SweepSpec spec;
    spec.workloads = {"histogramfs"};
    spec.faultPoints = {"mem.frame_exhausted"};
    spec.faultRates = {0.0, 0.5};

    std::vector<Job> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    // Rate 0 is the clean control: no fault armed at all.
    EXPECT_TRUE(jobs[0].config.run.faults.empty());
    EXPECT_EQ(jobs[0].scenario(), "none");
    ASSERT_EQ(jobs[1].config.run.faults.size(), 1u);
    EXPECT_EQ(jobs[1].config.run.faults[0].first,
              "mem.frame_exhausted");
    EXPECT_EQ(jobs[1].scenario(), "mem.frame_exhausted@0.50");
}

TEST(SweepSpec, ValidateCatchesBadAxes)
{
    SweepSpec spec;
    EXPECT_FALSE(spec.validate().empty()); // no workloads

    spec.workloads = {"no-such-workload"};
    EXPECT_FALSE(spec.validate().empty());

    spec.workloads = {"histogramfs"};
    EXPECT_TRUE(spec.validate().empty());

    spec.faultRates = {1.5};
    EXPECT_FALSE(spec.validate().empty()); // rate out of [0,1]

    spec.faultRates = {0.5};
    EXPECT_FALSE(spec.validate().empty()); // rate without a point

    spec.faultPoints = {"mem.frame_exhausted"};
    EXPECT_TRUE(spec.validate().empty());

    spec.scales = {0};
    EXPECT_FALSE(spec.validate().empty());
}

TEST(SweepSpec, SpecTextRoundTrips)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpecText(spec,
                              "# sweep over two workloads\n"
                              "workloads = histogramfs, spinlockpool\n"
                              "treatments = pthreads,tmi-protect\n"
                              "scales = 2,4\n"
                              "seeds = 1,2\n"
                              "threads = 8\n"
                              "budget = 1000000\n"
                              "watchdog = -1\n"
                              "\n"
                              "fault_points = mem.frame_exhausted\n"
                              "fault_rates = 0,0.5\n",
                              err))
        << err;
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"histogramfs",
                                        "spinlockpool"}));
    EXPECT_EQ(spec.treatments,
              (std::vector<Treatment>{Treatment::Pthreads,
                                      Treatment::TmiProtect}));
    EXPECT_EQ(spec.base.run.threads, 8u);
    EXPECT_EQ(spec.base.run.budget, 1'000'000u);
    EXPECT_EQ(spec.base.run.watchdog, -1);
    EXPECT_EQ(spec.matrixSize(), 2u * 2 * 2 * 2 * 2);
}

TEST(SweepSpec, SpecTextReportsLineNumbers)
{
    SweepSpec spec;
    std::string err;
    EXPECT_FALSE(parseSpecText(spec,
                               "workloads = histogramfs\n"
                               "scales = banana\n",
                               err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(parseSpecText(spec, "no equals sign here\n", err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(parseSpecText(spec, "wibble = 3\n", err));
    EXPECT_NE(err.find("wibble"), std::string::npos) << err;
}

TEST(SweepSpec, ParamKeyAppendsToBaseConfig)
{
    SweepSpec spec;
    std::string err;
    // The spec parser splits at the FIRST '=', so the param's own
    // assignment survives in the value.
    ASSERT_TRUE(parseSpecText(spec,
                              "workloads = feed-spsc\n"
                              "param = arrival_gap=900\n"
                              "param = profile = bursty\n",
                              err))
        << err;
    ASSERT_EQ(spec.base.run.params.size(), 2u);
    EXPECT_EQ(spec.base.run.params[0].first, "arrival_gap");
    EXPECT_EQ(spec.base.run.params[0].second, "900");
    EXPECT_EQ(spec.base.run.params[1].first, "profile");
    EXPECT_EQ(spec.base.run.params[1].second, "bursty");
    EXPECT_TRUE(spec.validate().empty());

    // Every expanded job inherits the base params.
    std::vector<Job> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].config.run.params, spec.base.run.params);

    err.clear();
    EXPECT_FALSE(parseSpecText(spec, "param = no-assignment\n", err));
    EXPECT_NE(err.find("key=value"), std::string::npos) << err;
}

TEST(SweepSpec, UnknownParamFailsValidateWithValidKeys)
{
    SweepSpec spec;
    spec.workloads = {"feed-spsc"};
    spec.base.run.params = {{"bogus_knob", "7"}};
    std::vector<ConfigError> errors = spec.validate();
    ASSERT_FALSE(errors.empty());
    bool mentions_key = false, mentions_valid = false;
    for (const ConfigError &e : errors) {
        mentions_key |=
            e.message.find("bogus_knob") != std::string::npos;
        mentions_valid |=
            e.message.find("arrival_gap") != std::string::npos;
    }
    EXPECT_TRUE(mentions_key);
    EXPECT_TRUE(mentions_valid);

    // Workloads without a schema reject any key.
    spec.workloads = {"histogramfs"};
    spec.base.run.params = {{"arrival_gap", "900"}};
    EXPECT_FALSE(spec.validate().empty());
}

TEST(SweepSpec, FamilyTokenExpandsInWorkloadsList)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpecText(spec,
                              "workloads = histogramfs, family:server\n",
                              err))
        << err;
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"histogramfs", "feed-spsc",
                                        "feed-spmc"}));

    err.clear();
    SweepSpec bad;
    EXPECT_FALSE(
        parseSpecText(bad, "workloads = family:nope\n", err));
    EXPECT_NE(err.find("nope"), std::string::npos) << err;
    EXPECT_NE(err.find("server"), std::string::npos) << err;
}

TEST(SweepSpec, ListParsersRejectGarbage)
{
    std::string err;
    std::vector<std::uint64_t> u;
    EXPECT_FALSE(parseU64List("1,x", u, err));
    std::vector<double> d;
    EXPECT_FALSE(parseDoubleList("0.5,?", d, err));
    std::vector<Treatment> t;
    EXPECT_FALSE(parseTreatmentList("tmi-protect,bogus", t, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);

    EXPECT_EQ(splitList(" a , b ,, c "),
              (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SweepSpec, ScalarKeysRejectValuesTheirFieldCannotHold)
{
    std::string err;
    for (const char *bad :
         {"threads = 4294967297\n", "threads = -1\n", "seed = 1x\n",
          "budget = +5\n", "watchdog = 2147483648\n",
          "monitor = - 1\n", "scales = 18446744073709551616\n",
          "fault_rates = nan\n"}) {
        SweepSpec spec;
        EXPECT_FALSE(parseSpecText(spec, bad, err)) << bad;
    }
    SweepSpec spec;
    ASSERT_TRUE(parseSpecText(spec,
                              "threads = 4294967295\nwatchdog = -1\n"
                              "monitor = 1\n",
                              err))
        << err;
    EXPECT_EQ(spec.base.run.threads, 4294967295u);
    EXPECT_EQ(spec.base.run.watchdog, -1);
}

TEST(SweepSpec, UnknownFaultPointFailsValidateWithValidNames)
{
    SweepSpec spec;
    spec.workloads = {"histogramfs"};
    spec.faultPoints = {"mem.frame_exhuasted"};
    spec.faultRates = {1.0};
    std::vector<ConfigError> errors = spec.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].message.find("mem.frame_exhuasted"),
              std::string::npos);
    EXPECT_NE(errors[0].message.find("mem.frame_exhausted"),
              std::string::npos);

    // The same check guards a fault armed on the base config.
    spec.faultPoints.clear();
    spec.faultRates.clear();
    spec.base.run.faults = {{"bogus.point", FaultSpec::always()}};
    EXPECT_FALSE(spec.validate().empty());
}

/**
 * Mutation fuzz of the spec-text decoder, which also decodes every
 * sweep flag key by key: each mutant is either accepted -- and then
 * validates without crashing -- or rejected with an error naming its
 * line. Under asan-ubsan this covers the list, number, family and
 * param decoders for out-of-bounds reads and overflow.
 */
TEST(SweepSpec, MutationFuzzDecodesOrRejects)
{
    test::Mutator mutator(
        {"# two workloads\n"
         "workloads = histogramfs, spinlockpool\n"
         "treatments = pthreads,tmi-protect\n"
         "scales = 2,4\nseeds = 1,2\nthreads = 8\nbudget = 1000000\n"
         "watchdog = -1\nmonitor = 0\n"
         "fault_points = mem.frame_exhausted\n"
         "fault_rates = 0,0.5\n",
         "workloads = family:server\n"
         "param = arrival_gap=900\n"
         "param = profile = bursty\n"
         "placements = pack,isolate\nperiods = 100,1000\n"
         "interval = 500000\nperiod = 7\nseed = 3\n"},
        0x5bec5eedull, test::Mutator::kTextOps);
    unsigned accepted = 0, rejected = 0;
    for (unsigned i = 0; i < 6000; ++i) {
        std::string m = mutator.mutate(i);
        SweepSpec spec;
        std::string err;
        if (parseSpecText(spec, m, err)) {
            ++accepted;
            spec.validate();
        } else {
            ++rejected;
            ASSERT_EQ(err.rfind("line ", 0), 0u)
                << "mutant " << i << ": " << err;
        }
    }
    // Both paths must actually be exercised.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace tmi::driver
