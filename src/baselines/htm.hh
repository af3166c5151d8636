/**
 * @file
 * An HTM lock-elision backend with abort/retry/fallback hardening.
 *
 * Unlike the detect-then-repair treatments (tmi, sheriff, laser,
 * huron-static), htm-elide never looks for false sharing at all: it
 * speculatively elides every mutex acquisition into a bounded
 * read/write-set transaction and lets the MESI simulator supply the
 * conflicts ("Limited Read/Write-Set HTM without modifying the ISA or
 * the Coherence Protocol"). False sharing then costs aborts instead
 * of HITM stalls -- and the characteristic pathology changes from COW
 * storms to *livelock-by-abort*, which is exactly the failure family
 * the chaos matrix lacked.
 *
 * The robustness envelope, mirroring the ladders of the other
 * runtimes:
 *
 *  - per-entry retry with capped exponential backoff; after
 *    HtmConfig::maxRetries consecutive aborts the entry falls back to
 *    the real lock (graceful degradation, the classic elision rung);
 *  - an abort-storm watchdog: a site whose fallback engagements
 *    cluster inside a storm window is tripped to lock-only
 *    ("partial-lockdown"); RobustnessConfig::watchdogMaxFlushes site
 *    trips degrade the whole runtime to "lock-only";
 *  - RecoverUp: a tripped site quietly returns to elision after
 *    RobustnessConfig::recoverUpWindows storm windows without a new
 *    storm (0 keeps trips permanent);
 *  - fault points htm.spurious_abort and htm.capacity_misaccount
 *    perturb the abort machinery inside the machine's txn engine, and
 *    htm.fallback_stuck makes the fallback rung itself refuse the
 *    real lock -- with the watchdog disabled that is a genuine
 *    livelock, which is the chaos reproducer this backend ships.
 *
 * Safety: an elided region reads the lock word into its read set, so
 * a real acquirer's CAS aborts every elider (speculation never runs
 * concurrently with a lock holder), and the commit-time invariant
 * probe checks that no transaction commits after observing a
 * conflicting remote store.
 */

#ifndef TMI_BASELINES_HTM_HH
#define TMI_BASELINES_HTM_HH

#include <unordered_map>
#include <vector>

#include "core/machine.hh"
#include "runtime/invariants.hh"
#include "runtime/repair_runtime.hh"
#include "runtime/robustness.hh"

namespace tmi
{

/** htm-elide configuration. */
struct HtmConfig
{
    /** Bounded speculative set capacities, in cache lines. */
    unsigned readSetLines = 64;
    unsigned writeSetLines = 32;
    /** Consecutive aborts of one entry before the real lock. Deep
     *  enough that the capped exponential backoff reaches a window
     *  longer than a contended critical section before the fallback
     *  rung engages (fallbacks write the lock word, which kills
     *  every concurrent speculator -- a rung worth deferring). */
    unsigned maxRetries = 8;

    Cycles beginCost = 40;   //!< checkpoint + txn setup
    Cycles commitCost = 25;  //!< set teardown at commit
    Cycles abortCost = 120;  //!< rollback + restart penalty
    /** First retry backoff; doubles per retry up to the cap. */
    Cycles backoffBase = 200;
    Cycles backoffCap = 25'000;
    /** Stall charged each time htm.fallback_stuck refuses the lock
     *  (keeps simulated time advancing through the livelock). */
    Cycles fallbackStallCost = 2'000;

    /** Abort-storm watchdog: this many fallback engagements at one
     *  site within one storm window trip the site to lock-only. */
    unsigned stormThreshold = 8;
    Cycles stormWindow = 1'000'000;

    /** Shared robustness vocabulary. The effectiveness monitor does
     *  not apply (there is no repair to judge); watchdogEnabled arms
     *  the abort-storm watchdog, watchdogMaxFlushes bounds site trips
     *  before global lock-only, and recoverUpWindows controls how
     *  many quiet storm windows un-trip a site. */
    RobustnessConfig robust{.monitorEnabled = false};
};

/** Speculative lock-elision runtime (Treatment::HtmElide). */
class HtmRuntime : public RepairRuntime
{
  public:
    HtmRuntime(Machine &machine, const HtmConfig &config = {});

    /** Install hooks; no daemon thread (the watchdog is lazy). */
    void attach() override;

    bool onMutexLock(ThreadId tid, Addr caddr) override;
    bool onMutexUnlock(ThreadId tid, Addr caddr) override;

    /** @name Robustness queries (parity with the other runtimes) */
    /// @{
    /** "elide", "partial-lockdown" (some sites tripped), or
     *  "lock-only" (the watchdog gave up on elision globally). */
    const char *rungName() const
    {
        if (_globalLockOnly)
            return "lock-only";
        return _lockedSites != 0 ? "partial-lockdown" : "elide";
    }

    /** Elision still engaged somewhere (repairActive analogue). */
    bool elisionActive() const { return !_globalLockOnly; }

    /** Entries that fell back to the real lock. */
    std::uint64_t fallbackLocks() const
    {
        return static_cast<std::uint64_t>(_statFallbacks.value());
    }

    /** Abort-storm watchdog trips (site -> lock-only). */
    std::uint64_t watchdogFlushes() const
    {
        return static_cast<std::uint64_t>(_statStormTrips.value());
    }

    /** Ladder drops: every site trip, plus the global drop. */
    std::uint64_t ladderDrops() const
    {
        return static_cast<std::uint64_t>(_statLadderDrops.value());
    }

    /** Sites recovered back to elision after quiet windows. */
    std::uint64_t ladderRecovers() const
    {
        return static_cast<std::uint64_t>(_statLadderRecovers.value());
    }

    /** Commit-time invariant probe (chaos oracle input). */
    const InvariantProbe &probe() const { return _probe; }
    /// @}

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group) override;

    void harvest(RunResult &res) override;

  private:
    /** Per-lock-site elision state, keyed by canonical address. */
    struct SiteState
    {
        enum class Mode : std::uint8_t
        {
            Elide,    //!< speculate on entry
            LockOnly, //!< storm-tripped: take the real lock
        };

        Mode mode = Mode::Elide;
        /** Storm accounting: fallbacks inside the current window. */
        unsigned fallbacksInWindow = 0;
        Cycles windowStart = 0;
        Cycles trippedAt = 0; //!< for RecoverUp's quiet-period test
    };

    /** Count a fallback toward the site's storm window. */
    void noteStorm(SiteState &site, Addr caddr);
    /** Trip @p site to lock-only; may drop the global rung. */
    void tripSite(SiteState &site, Addr caddr, Cycles now);
    /** Un-trip @p site if its quiet period has elapsed. */
    bool tryRecoverUp(SiteState &site, Addr caddr, Cycles now);
    /** Record one abort by reason. */
    void countAbort(TxnAbortReason why);

    Addr &elidedSiteOf(ThreadId tid);

    Machine &_m;
    HtmConfig _cfg;
    obs::TraceRecorder *_trace;
    InvariantProbe _probe;
    Addr _pcLockProbe = 0;

    std::unordered_map<Addr, SiteState> _sites;
    /** Lock site each thread is currently eliding (0 = none). */
    std::vector<Addr> _elided;
    unsigned _lockedSites = 0;
    bool _globalLockOnly = false;

    stats::Scalar _statFallbacks;
    stats::Scalar _statStormTrips;
    stats::Scalar _statLadderDrops;
    stats::Scalar _statLadderRecovers;
    stats::Scalar _statFallbackStuck;
    stats::Scalar _statAbortConflict;
    stats::Scalar _statAbortRemote;
    stats::Scalar _statAbortCapacity;
    stats::Scalar _statAbortSpurious;
    stats::Scalar _statAbortNested;
};

} // namespace tmi

#endif // TMI_BASELINES_HTM_HH
