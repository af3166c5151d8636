#include "executor.hh"

#include <algorithm>

namespace tmi::driver
{

Executor
Executor::inProcess(RunnerOptions options)
{
    options.collectResults = false;
    return Executor([options](const std::string &, std::vector<Job> jobs,
                              ResultSink *sink) {
        Runner runner(options);
        runner.run(std::move(jobs), sink);
        ShardRunStats stats;
        stats.sweep = runner.stats();
        return stats;
    });
}

Executor
Executor::sharded(ShardOptions options)
{
    return Executor([options](const std::string &phase,
                              std::vector<Job> jobs, ResultSink *sink) {
        ShardOptions opts = options;
        if (!phase.empty())
            opts.journalDir += "/" + phase;
        return ShardSupervisor(std::move(opts)).run(std::move(jobs),
                                                    sink);
    });
}

void
Executor::run(const std::string &phase, std::vector<Job> jobs,
              ResultSink *sink)
{
    ShardRunStats s = _runPhase(phase, std::move(jobs), sink);
    _stats.shards = std::max(_stats.shards, s.shards);
    _stats.crashes += s.crashes;
    _stats.respawns += s.respawns;
    _stats.poisoned += s.poisoned;
    _stats.resumedJobs += s.resumedJobs;
    _stats.tornRecords += s.tornRecords;
    _stats.sweep.total += s.sweep.total;
    _stats.sweep.ok += s.sweep.ok;
    _stats.sweep.failed += s.sweep.failed;
    _stats.sweep.timedOut += s.sweep.timedOut;
    _stats.sweep.cancelled += s.sweep.cancelled;
    _stats.sweep.poisoned += s.sweep.poisoned;
    _stats.sweep.retries += s.sweep.retries;
    _stats.sweep.wallSeconds += s.sweep.wallSeconds;
}

} // namespace tmi::driver
