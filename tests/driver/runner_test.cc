/**
 * @file
 * Runner behaviour tests: retries with backoff, failure containment
 * (one job exhausting its budget must not poison its siblings),
 * host-side timeout, cancellation, and invalid-job reporting.
 */

#include <gtest/gtest.h>

#include "driver/runner.hh"

namespace tmi::driver
{

namespace
{

RunnerOptions
withWorkers(unsigned n)
{
    RunnerOptions opts;
    opts.workers = n;
    return opts;
}

SweepSpec
smallSpec(std::vector<std::string> workloads = {"histogramfs"})
{
    SweepSpec spec;
    spec.workloads = std::move(workloads);
    spec.base.run.treatment = Treatment::TmiProtect;
    spec.base.run.scale = 1;
    spec.base.run.analysisInterval = 300'000;
    return spec;
}

} // namespace

TEST(Runner, TransientFailureIsRetried)
{
    RunnerOptions opts;
    opts.workers = 2;
    opts.maxAttempts = 3;
    opts.retryBackoff = std::chrono::milliseconds(1);
    // Job 0 fails on its first two attempts, then recovers.
    opts.failInjector = [](const Job &job, unsigned attempt) {
        return job.id == 0 && attempt < 3;
    };
    Runner runner(opts);

    std::vector<JobResult> results =
        runner.run(smallSpec({"histogramfs", "spinlockpool"}).expand());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    EXPECT_EQ(results[1].attempts, 1u);
    EXPECT_EQ(runner.stats().retries, 2u);
    EXPECT_EQ(runner.stats().ok, 2u);
}

TEST(Runner, ExhaustedRetriesFailWithoutPoisoningSiblings)
{
    RunnerOptions opts;
    opts.workers = 2;
    opts.maxAttempts = 2;
    opts.retryBackoff = std::chrono::milliseconds(1);
    // Job 1 never succeeds; its siblings must be untouched.
    opts.failInjector = [](const Job &job, unsigned) {
        return job.id == 1;
    };
    Runner runner(opts);

    std::vector<JobResult> results = runner.run(
        smallSpec({"histogramfs", "spinlockpool", "histogram"}).expand());
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::Failed);
    EXPECT_EQ(results[1].attempts, 2u);
    EXPECT_EQ(results[1].error, "injected failure");
    EXPECT_EQ(results[2].status, JobStatus::Ok);
    EXPECT_TRUE(results[2].run.compatible);
    EXPECT_EQ(runner.stats().failed, 1u);
    EXPECT_EQ(runner.stats().ok, 2u);
}

TEST(Runner, InvalidSpecReportsEveryJobFailed)
{
    SweepSpec spec = smallSpec();
    spec.base.run.threads = 0; // invalid per-cell config

    // Each invalid job is reported Failed with its errors, unrun.
    unsigned delivered = 0;
    FunctionSink sink([&](const JobResult &r) {
        ++delivered;
        EXPECT_EQ(r.status, JobStatus::Failed);
        EXPECT_EQ(r.attempts, 0u);
        EXPECT_NE(r.error.find("threads"), std::string::npos);
    });
    Runner runner(withWorkers(1));
    std::vector<JobResult> results = runner.run(spec.expand(), &sink);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(runner.stats().failed, 1u);
}

TEST(Runner, HostTimeoutKillsRunawayJob)
{
    // An effectively-unbounded simulation (the largest valid scale,
    // a huge budget) against a tiny host timeout: the watchdog must
    // cancel it through the scheduler's abort flag, and it is not
    // retried.
    SweepSpec spec = smallSpec();
    spec.base.run.scale = maxScale;
    RunnerOptions opts;
    opts.workers = 1;
    opts.jobTimeout = std::chrono::milliseconds(50);
    Runner runner(opts);

    std::vector<JobResult> results = runner.run(spec.expand());
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::TimedOut);
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_EQ(runner.stats().timedOut, 1u);
}

TEST(Runner, RequestStopCancelsRemainingJobs)
{
    SweepSpec spec =
        smallSpec({"histogramfs", "spinlockpool", "histogram",
                   "stringmatch"});
    Runner runner(withWorkers(1));
    // Serial worker + in-order delivery: stopping from the first
    // delivery leaves every later job not-yet-started.
    FunctionSink sink([&](const JobResult &r) {
        if (r.job.id == 0)
            runner.requestStop();
    });

    std::vector<JobResult> results = runner.run(spec.expand(), &sink);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(results[i].status, JobStatus::Cancelled);
    EXPECT_EQ(runner.stats().cancelled, 3u);
}

TEST(Runner, StatsAndResultsCoverEveryJob)
{
    SweepSpec spec = smallSpec({"histogramfs", "spinlockpool"});
    spec.seeds = {1, 2, 3};
    Runner runner(withWorkers(3));

    std::vector<JobResult> results = runner.run(spec.expand());
    ASSERT_EQ(results.size(), 6u);
    const SweepStats &stats = runner.stats();
    EXPECT_EQ(stats.total, 6u);
    EXPECT_EQ(stats.ok + stats.failed + stats.timedOut +
                  stats.cancelled,
              6u);
    EXPECT_GT(stats.wallSeconds, 0.0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].job.id, i);
        EXPECT_EQ(results[i].status, JobStatus::Ok);
        EXPECT_TRUE(results[i].run.compatible);
    }
}

} // namespace tmi::driver
