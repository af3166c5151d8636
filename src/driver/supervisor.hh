/**
 * @file
 * The shard supervisor: crash-safe, multi-process campaign
 * orchestration.
 *
 * The in-process Runner contains exceptions and runaway simulations,
 * but a segfault, abort, or host-OOM in any job still takes down the
 * whole campaign -- exactly the failure modes our own fault injector
 * (and the paper's COW-storm/livelock pathologies) produce on
 * purpose. The supervisor moves the containment boundary to the
 * process:
 *
 *  - *Sharding*: the job list is split into contiguous job-id ranges,
 *    one worker process per shard (fork; the child never returns).
 *    Each child executes its range on an ordinary Runner and appends
 *    every completed result to its own journal (driver/journal.hh).
 *
 *  - *Crash containment*: a child that dies abnormally (signal,
 *    nonzero exit, watchdog) costs only its in-flight job. The
 *    supervisor recovers the shard journal, charges the kill to the
 *    first unjournaled job of the shard (children run their range in
 *    id order), and respawns the shard for the remaining jobs. A job
 *    whose kill count reaches the budget (default 2) is quarantined:
 *    the supervisor writes a status=poisoned record to the journal
 *    itself, so the job is visible in every downstream CSV and never
 *    silently dropped -- and never run again.
 *
 *  - *Checkpoint/resume*: because every result is journaled before
 *    the campaign ends, a supervisor killed at an arbitrary point
 *    (SIGKILL included) resumes by recovering the journals and
 *    running only the jobs with no durable record. A MANIFEST file
 *    (job count, shard count, fingerprint and per-field digests of
 *    the whole job config; tempfile+rename) pins the journal
 *    directory to one expansion, so a resume with any changed job
 *    field fails loudly, naming it, instead of merging unrelated
 *    runs.
 *
 *  - *Streaming merge*: shards cover contiguous id ranges and each
 *    journal is internally ordered (dedup by id for requeue edge
 *    cases), so the final merge walks shard 0..S-1 re-emitting
 *    records in global id order -- one record in memory at a time,
 *    which keeps campaign memory flat at any matrix size. Since job
 *    results are pure functions of their configs, the merged stream
 *    is byte-identical to an uninterrupted single-process run.
 */

#ifndef TMI_DRIVER_SUPERVISOR_HH
#define TMI_DRIVER_SUPERVISOR_HH

#include <functional>

#include "driver/journal.hh"
#include "driver/runner.hh"

namespace tmi::driver
{

/** Orchestration policy for one supervised campaign. */
struct ShardOptions
{
    /** Worker processes; 0 = hardware concurrency (min 1). */
    unsigned shards = 1;
    /** Journal directory (required; created if missing). */
    std::string journalDir;
    /** Recover existing journals and skip their jobs. Off = the
     *  directory must not already hold a MANIFEST. */
    bool resume = false;
    /** Child kills charged to one job before quarantine. */
    unsigned killBudget = 2;
    /** Respawns per shard before the remainder is failed outright
     *  (safety net above the per-job budget). */
    unsigned maxRespawnsPerShard = 64;
    /** Journal fsync/checkpoint cadence, in records. */
    std::uint64_t checkpointEvery = 16;
    /** Execution policy inside each child (workers is per-child;
     *  keep 1 unless shards << cores). */
    RunnerOptions runner;
    /** Called in the parent when a shard crashes. */
    std::function<void(const std::string &line)> onEvent;
    /** TEST-ONLY: runs in the child before each job attempt; may
     *  abort()/raise() to simulate a crashing job. @p globalId is
     *  the campaign-wide job id, @p generation the shard's respawn
     *  count (0 = first spawn). */
    std::function<void(const Job &job, std::uint64_t globalId,
                       unsigned generation)>
        childFaultHook;
};

/** What one supervised campaign did (SweepStats + orchestration). */
struct ShardRunStats
{
    SweepStats sweep; //!< per-status totals over the merged stream
    std::uint64_t shards = 0;
    std::uint64_t crashes = 0;     //!< abnormal child exits
    std::uint64_t respawns = 0;    //!< extra generations spawned
    std::uint64_t poisoned = 0;    //!< quarantined jobs
    std::uint64_t resumedJobs = 0; //!< journaled before this run
    std::uint64_t tornRecords = 0; //!< bytes-dropped recoveries seen

    /** True when every job ended status=ok. */
    bool
    allOk() const
    {
        return sweep.ok == sweep.total;
    }
};

/**
 * Orchestrates one job list across shard worker processes. The
 * merged result stream reaches @p sink strictly in job-id order
 * after all shards settle; ids are reassigned densely in input
 * order, exactly like Runner::run. Throws std::runtime_error on
 * setup failures (unwritable journal dir, manifest mismatch) --
 * never for job- or shard-level failures, which are contained and
 * reported in the stats.
 */
class ShardSupervisor
{
  public:
    explicit ShardSupervisor(ShardOptions options);

    /** Run (or resume) @p jobs; stream merged results to @p sink. */
    ShardRunStats run(std::vector<Job> jobs, ResultSink *sink);

    /** Shard index covering a global job id under this partition
     *  (exposed for the tests; ranges are contiguous). */
    static std::pair<std::uint64_t, std::uint64_t>
    shardRange(std::uint64_t jobs, unsigned shards, unsigned shard);

    /** Stable fingerprint of an expansion: its job count and a
     *  digest of every job-config field a resume must reproduce. */
    static std::uint64_t fingerprintJobs(const std::vector<Job> &jobs);

    /** Journal path for shard @p k under @p dir. */
    static std::string journalPath(const std::string &dir,
                                   unsigned shard);

  private:
    struct ShardState;

    void spawnShard(ShardState &shard, const std::vector<Job> &jobs);
    [[noreturn]] void childMain(ShardState &shard,
                                const std::vector<Job> &jobs);
    void reapShard(ShardState &shard, int waitStatus);
    void writeManifest(const std::string &path,
                       const std::vector<Job> &jobs) const;
    /** Throws unless the MANIFEST at @p path pins exactly @p jobs
     *  (naming the fields that differ); returns its shard count. */
    unsigned checkManifest(const std::string &path,
                           const std::vector<Job> &jobs) const;

    ShardOptions _opts;
    ShardRunStats _stats;
};

} // namespace tmi::driver

#endif // TMI_DRIVER_SUPERVISOR_HH
