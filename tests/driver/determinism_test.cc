/**
 * @file
 * The sweep driver's central invariant: output is byte-identical
 * whatever the worker count. Each job is a deterministic simulation
 * keyed by its config, and the sink sees results strictly in job-id
 * order -- so the full CSV from 1, 2 and 8 workers must compare equal
 * down to the last byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "driver/runner.hh"

namespace tmi::driver
{

namespace
{

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

std::string
sweepCsv(const SweepSpec &spec, unsigned workers)
{
    std::ostringstream os;
    SweepCsvSink sink(os);
    RunnerOptions opts;
    opts.workers = workers;
    Runner runner(opts);
    runner.run(spec.expand(), &sink);
    return os.str();
}

} // namespace

TEST(SweepDeterminism, CsvIsByteIdenticalAcrossWorkerCounts)
{
    SweepSpec spec = matrixSpec();
    std::string golden = sweepCsv(spec, 1);

    // The golden single-worker run must itself be complete.
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(golden.begin(), golden.end(), '\n')),
              spec.matrixSize() + 1);

    EXPECT_EQ(sweepCsv(spec, 2), golden);
    EXPECT_EQ(sweepCsv(spec, 8), golden);
}

TEST(SweepDeterminism, ResultsArriveInJobIdOrder)
{
    SweepSpec spec = matrixSpec();
    std::uint64_t expected = 0;
    bool ordered = true;
    FunctionSink sink([&](const JobResult &r) {
        ordered = ordered && r.job.id == expected;
        ++expected;
    });
    RunnerOptions opts;
    opts.workers = 4;
    Runner runner(opts);
    std::vector<JobResult> results = runner.run(spec.expand(), &sink);
    EXPECT_TRUE(ordered);
    EXPECT_EQ(expected, spec.matrixSize());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].job.id, i);
}

TEST(SweepDeterminism, RepeatedSweepsAgreeRunForRun)
{
    // Two sweeps of the same spec on different worker counts agree
    // not just on bytes but on the measured simulated cycles.
    SweepSpec spec = matrixSpec();
    RunnerOptions oa, ob;
    oa.workers = 1;
    ob.workers = 3;
    Runner a(oa), b(ob);
    std::vector<JobResult> ra = a.run(spec.expand());
    std::vector<JobResult> rb = b.run(spec.expand());
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].status, rb[i].status);
        EXPECT_EQ(ra[i].run.cycles, rb[i].run.cycles);
        EXPECT_EQ(ra[i].run.hitmEvents, rb[i].run.hitmEvents);
        EXPECT_EQ(ra[i].run.faultFires, rb[i].run.faultFires);
    }
}

} // namespace tmi::driver
