/**
 * @file
 * The job executor campaigns run on: one interface over the
 * in-process Runner and the crash-safe ShardSupervisor, so a pipeline
 * of job lists (a sweep; a chaos campaign's goldens and chaos phases)
 * is written once and writes the same bytes either way.
 */

#ifndef TMI_DRIVER_EXECUTOR_HH
#define TMI_DRIVER_EXECUTOR_HH

#include "driver/supervisor.hh"

namespace tmi::driver
{

/** Runs job lists; stats() sums every run() so far. */
class Executor
{
  public:
    /** One Runner (worker threads) per run(); results reach the
     *  sink only (collectResults is forced off). */
    static Executor inProcess(RunnerOptions options);

    /** One ShardSupervisor (worker processes + journals) per run(),
     *  journaling under `options.journalDir/phase`. */
    static Executor sharded(ShardOptions options);

    /** Run @p jobs and deliver every result to @p sink in input
     *  order (ids are reassigned densely, like Runner::run). @p phase
     *  names the list: the sharded executor journals it under
     *  `journalDir/phase` ("" = journalDir itself), so lists of
     *  different shapes never share a MANIFEST. Throws
     *  std::runtime_error on a setup failure (bad journal directory,
     *  mismatched resume), never for a failing job. */
    void run(const std::string &phase, std::vector<Job> jobs,
             ResultSink *sink);

    const ShardRunStats &stats() const { return _stats; }

  private:
    using RunPhase = std::function<ShardRunStats(
        const std::string &phase, std::vector<Job> jobs,
        ResultSink *sink)>;

    explicit Executor(RunPhase runPhase)
        : _runPhase(std::move(runPhase))
    {
    }

    RunPhase _runPhase;
    ShardRunStats _stats;
};

} // namespace tmi::driver

#endif // TMI_DRIVER_EXECUTOR_HH
