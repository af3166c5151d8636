/**
 * @file
 * The sweep runner: executes a job matrix on a host thread pool.
 *
 * Design constraints, in priority order:
 *
 *  1. *Determinism*: each job is an isolated, per-cell-seeded
 *     simulation, so its RunResult is a pure function of its Config.
 *     The runner only has to keep delivery deterministic: results
 *     are buffered and released to the ResultSink in job-id order,
 *     which makes all output byte-identical for 1 or N workers.
 *  2. *Utilization*: jobs are dealt round-robin onto per-worker
 *     deques; an idle worker steals from the back of a victim's
 *     deque (classic work-stealing, cheap because the unit of work
 *     is a whole simulation).
 *  3. *Containment*: a failing job (exception or injected failure)
 *     is retried with capped exponential backoff; exhausting the
 *     budget marks that job Failed without touching its siblings. A
 *     per-job host timeout cancels runaway simulations through the
 *     scheduler's abort flag; requestStop() cancels the whole sweep
 *     the same way.
 */

#ifndef TMI_DRIVER_RUNNER_HH
#define TMI_DRIVER_RUNNER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "driver/sink.hh"
#include "driver/sweep.hh"

namespace tmi::driver
{

/** Host-side execution policy (all knobs, no simulation knobs). */
struct RunnerOptions
{
    /** Worker threads; 0 = hardware concurrency (min 1). */
    unsigned workers = 0;
    /** Executions per job before it is reported Failed (>= 1). */
    unsigned maxAttempts = 3;
    /** Host wait before the first retry; doubles per retry. */
    std::chrono::milliseconds retryBackoff{10};
    /** Backoff growth stops at this cap. */
    std::chrono::milliseconds retryBackoffCap{2000};
    /** Kill a single execution after this long (0 = unlimited).
     *  Timed-out jobs are not retried: a deterministic simulation
     *  that ran out of host time once will again. */
    std::chrono::milliseconds jobTimeout{0};
    /** Emit a \r-progress line (done/failed/retried, ETA) to
     *  @ref progressStream as results are delivered. */
    bool progress = false;
    /** Buffer every JobResult and return the vector from run().
     *  Turn off for big campaigns that consume results through the
     *  sink only: memory stays flat instead of O(matrix). */
    bool collectResults = true;
    /** Defaults to stderr when null. */
    std::FILE *progressStream = nullptr;
    /** Test hook: pretend attempt @p attempt of @p job failed
     *  (before the simulation runs). Exercised by the retry tests. */
    std::function<bool(const Job &, unsigned attempt)> failInjector;
};

/** Aggregate counters for one run() call. */
struct SweepStats
{
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t cancelled = 0;
    /** Quarantined poison jobs (only the shard supervisor makes
     *  these; an in-process Runner never does). */
    std::uint64_t poisoned = 0;
    /** Extra executions beyond each job's first. */
    std::uint64_t retries = 0;
    double wallSeconds = 0;

    /** Tally one delivered result: its status and its retries. */
    void count(const JobResult &result);
};

/** Executes job lists. One run() at a time. */
class Runner
{
  public:
    explicit Runner(RunnerOptions options = {});

    /** Run a job list (e.g. a SweepSpec's expand()). Ids are
     *  reassigned densely in input order, and results (and sink
     *  deliveries) arrive in that order. A job whose config fails
     *  validation is reported Failed with the error list, unrun. */
    std::vector<JobResult> run(std::vector<Job> jobs,
                               ResultSink *sink = nullptr);

    /** Cancel the sweep: not-yet-started jobs report Cancelled, the
     *  in-flight ones are aborted mid-simulation. Safe from any
     *  thread, including a sink callback. */
    void requestStop();

    bool
    stopRequested() const
    {
        return _stop.load(std::memory_order_relaxed);
    }

    /** Counters from the most recent run(). */
    const SweepStats &stats() const { return _stats; }

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::size_t> jobs; //!< indices into _jobs
    };

    /** One in-flight execution being watched for timeout. */
    struct TimeoutSlot
    {
        std::atomic<bool> *flag = nullptr;
        std::chrono::steady_clock::time_point deadline;
    };

    void workerLoop(unsigned self);
    bool takeJob(unsigned self, std::size_t &index);
    JobResult execute(unsigned self, const Job &job);
    void armSlot(unsigned self, std::atomic<bool> *flag);
    void disarmSlot(unsigned self);
    void deliver(JobResult &&result);
    void printProgress();
    void timeoutLoop();

    RunnerOptions _opts;
    unsigned _workers = 1;

    // Per-run state (owned by run(), read by workers).
    const std::vector<Job> *_jobs = nullptr;
    ResultSink *_sink = nullptr;
    std::vector<std::unique_ptr<WorkerQueue>> _queues;
    std::atomic<bool> _stop{false};

    // In-order release: results park in _pending until every lower
    // id has been delivered.
    std::mutex _deliverMutex;
    std::map<std::uint64_t, JobResult> _pending;
    std::uint64_t _nextId = 0;
    std::vector<JobResult> _ordered;
    SweepStats _stats;
    std::chrono::steady_clock::time_point _startedAt;

    // Host-timeout watchdog.
    std::mutex _timeoutMutex;
    std::condition_variable _timeoutCv;
    std::vector<TimeoutSlot> _timeoutSlots;
    bool _timeoutLoopExit = false;
};

} // namespace tmi::driver

#endif // TMI_DRIVER_RUNNER_HH
