/**
 * @file
 * The chaos campaign: N randomized fault schedules per evaluation
 * cell, executed on a driver::Executor (worker threads or crash-safe
 * shard processes), judged by the differential oracle, failures
 * shrunk to replayable reproducers.
 *
 * A campaign runs in three phases:
 *
 *  1. goldens: every (workload x treatment) cell runs once
 *     fault-free to capture its end-state digest and makespan. The
 *     makespan doubles as the horizon for drawing firing windows.
 *  2. chaos: `schedules` generated scenarios per cell fan out
 *     through the executor (retries, timeouts, any worker or shard
 *     count, resume from journals); each result is judged against
 *     its cell's golden as it is delivered, in job-id order -- the
 *     campaign CSV is therefore byte-identical for any executor.
 *  3. minimize: the first few failures are delta-debugged down to
 *     1-minimal schedules; the caller can serialize those as
 *     reproducer spec files (writeScheduleSpec).
 *
 * chaosCsvHeader()/chaosCsvRow() define the campaign CSV schema;
 * scripts/check_chaos.py validates files against it.
 */

#ifndef TMI_CHAOS_CAMPAIGN_HH
#define TMI_CHAOS_CAMPAIGN_HH

#include <iosfwd>

#include "chaos/minimize.hh"
#include "chaos/oracle.hh"
#include "chaos/schedule.hh"
#include "driver/executor.hh"

namespace tmi::chaos
{

/** What to run: the cells, how many schedules, and the knobs. */
struct CampaignSpec
{
    /** Template config (deep knobs, threads, scale, budget...). */
    Config base;
    /** Cells = workloads x treatments (both required non-empty). */
    std::vector<std::string> workloads;
    std::vector<Treatment> treatments;
    /** Generated schedules per cell. */
    std::uint64_t schedules = 16;
    /** Seed every schedule derives from (the replay key). */
    std::uint64_t campaignSeed = 1;
    GeneratorOptions generator;

    /** TEST-ONLY: run the whole campaign against the Sheriff
     *  dissolve-ordering regression hook (chaos regression demo). */
    bool sheriffBuggyDissolve = false;

    /** Delta-debug failing schedules (phase 3). */
    bool minimizeFailures = true;
    /** Failures minimized per campaign (each probe is a full run). */
    unsigned minimizeLimit = 4;

    /** Every constraint violation (empty = runnable). */
    std::vector<ConfigError> validate() const;

    /** Golden cells + chaos runs the campaign will execute. */
    std::uint64_t totalRuns() const;
};

/** One CSV row: a golden cell run or a judged chaos run. */
struct CampaignRow
{
    std::uint64_t id = 0;    //!< dense, goldens first
    bool golden = false;
    /** The scenario (events empty for goldens; run cell always
     *  filled in, so a row is self-describing). */
    ChaosSchedule schedule;
    driver::JobStatus status = driver::JobStatus::Cancelled;
    Judgement judgement;     //!< goldens: Pass/"golden baseline"
    RunResult run;
    std::uint64_t goldenDigest = 0;
    /** cycles / golden cycles (1.0 for goldens, 0 when unknown). */
    double slowdown = 0;
};

/** Everything a campaign produced. */
struct CampaignOutcome
{
    /** @name Chaos-run tallies (goldens not counted) */
    /// @{
    std::uint64_t judged = 0;
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::uint64_t skipped = 0; //!< NoDigest / cancelled cells
    /// @}

    /** Rows (goldens included) whose job did not end status=ok:
     *  host failures, timeouts, quarantined poison jobs, cancelled
     *  cells. Chaos-run failures also show up in `failed` (they are
     *  judged RunFailed); golden failures and cancellations appear
     *  only here -- a healthy campaign needs both at zero. */
    std::uint64_t jobFailures = 0;

    /** A minimized failure, ready to serialize and check in. */
    struct Reproducer
    {
        ChaosSchedule minimized;
        MinimizeStats stats;
        Judgement judgement; //!< verdict of the minimized replay
    };
    std::vector<Reproducer> reproducers;

    /** Every executed run satisfied its oracle. */
    bool allPassed() const { return failed == 0; }

    /** allPassed *and* every job actually ran: the exit-status
     *  predicate (a campaign whose jobs crashed must not report
     *  success just because the survivors passed). */
    bool clean() const { return failed == 0 && jobFailures == 0; }
};

/** @name Campaign CSV schema */
/// @{
/** Header line (no trailing newline). */
const char *chaosCsvHeader();

/** One row (no trailing newline; reason sanitized for CSV). */
std::string chaosCsvRow(const CampaignRow &row);
/// @}

/**
 * Run @p spec on @p executor, streaming CSV rows to @p csv (header
 * included; null = no CSV). The goldens and chaos phases run as the
 * executor's "goldens" and "chaos" job lists; row order -- and
 * therefore the CSV -- depends only on the spec, never on worker or
 * shard count, timing, or a resume from journals. Setup failures of
 * the executor propagate as std::runtime_error.
 */
CampaignOutcome runCampaign(const CampaignSpec &spec,
                            driver::Executor &executor,
                            std::ostream *csv = nullptr);

/**
 * Replay one schedule: run its cell fault-free for the golden, then
 * run the schedule and judge. @p base supplies the deep templates
 * (default Config{} matches what campaigns use). The returned row is
 * a chaos row (golden == false).
 */
CampaignRow replaySchedule(const ChaosSchedule &schedule,
                           const Config &base = {});

} // namespace tmi::chaos

#endif // TMI_CHAOS_CAMPAIGN_HH
