#include "htm.hh"

#include "common/logging.hh"
#include "obs/trace.hh"

namespace tmi
{

HtmRuntime::HtmRuntime(Machine &machine, const HtmConfig &config)
    : _m(machine), _cfg(config), _trace(machine.trace()), _probe(machine)
{
    TMI_ASSERT(_cfg.maxRetries >= 1, "htm needs at least one attempt");
    TMI_ASSERT(_cfg.stormThreshold >= 1);
}

void
HtmRuntime::attach()
{
    // The lock-word subscription read: 4 bytes, matching the width
    // the machine's sync.lock.cas traffic stores. Defined here, not
    // at construction: PC numbering is simulated state, and the
    // workload's init defines its PCs first.
    _pcLockProbe = _m.instructions().define("htm.lock.probe",
                                            MemKind::Load, 4);
    _m.setHooks(this);
}

Addr &
HtmRuntime::elidedSiteOf(ThreadId tid)
{
    if (_elided.size() <= tid)
        _elided.resize(tid + 1, 0);
    return _elided[tid];
}

void
HtmRuntime::countAbort(TxnAbortReason why)
{
    switch (why) {
      case TxnAbortReason::Conflict:
        ++_statAbortConflict;
        break;
      case TxnAbortReason::RemoteConflict:
        ++_statAbortRemote;
        break;
      case TxnAbortReason::Capacity:
        ++_statAbortCapacity;
        break;
      case TxnAbortReason::Spurious:
        ++_statAbortSpurious;
        break;
      case TxnAbortReason::Nested:
        ++_statAbortNested;
        break;
      case TxnAbortReason::None:
        break;
    }
}

bool
HtmRuntime::onMutexLock(ThreadId tid, Addr caddr)
{
    // A nested acquisition inside a speculative region: decline, and
    // let the machine abort the outer txn (Nested) -- the re-executed
    // entry falls straight back to real locks.
    if (_m.txnActive(tid))
        return false;
    if (_globalLockOnly)
        return false;

    SiteState &site = _sites[caddr];
    if (site.mode == SiteState::Mode::LockOnly &&
        !tryRecoverUp(site, caddr, _m.sched().now())) {
        return false;
    }

    unsigned attempts = 0;
    for (;;) {
        _m.compute(tid, _cfg.beginCost);
        // `attempts` lives in this frame: each txnBegin snapshots it,
        // so an abort arrival resumes with the count it had at that
        // begin and the ++ below makes retries progress.
        if (_m.txnBegin(tid, _cfg.readSetLines, _cfg.writeSetLines)) {
            // Subscribe the lock word: the read joins our read set,
            // so a real acquirer's CAS remote-aborts us. A nonzero
            // word means a real holder is inside the critical
            // section right now -- speculating alongside it would
            // read its half-done writes, so abort and retry until
            // its unlock store (which also aborts us) lands.
            std::uint64_t word =
                _m.memOp(tid, _pcLockProbe, caddr, false, 0, true);
            if (word != 0)
                _m.txnAbortSelf(tid, TxnAbortReason::Conflict);
            elidedSiteOf(tid) = caddr;
            return true;
        }

        // Abort arrival: memory and stack are back at begin-time.
        elidedSiteOf(tid) = 0;
        TxnAbortReason why = _m.txnAbortReason(tid);
        countAbort(why);
        _m.compute(tid, _cfg.abortCost);
        if (why == TxnAbortReason::Nested)
            break; // retrying replays the same nested lock
        if (why == TxnAbortReason::Conflict) {
            // Distinguish "a real holder owns the lock" from a data
            // conflict: re-speculating against a held lock word is a
            // guaranteed abort, so one fallback would cascade every
            // speculator into the fallback rung and trip the storm
            // watchdog on a healthy site. Wait out the holder with
            // plain loads instead (the glibc elision idiom) -- the
            // wait is bounded by the holder's critical section and
            // is not charged against the retry budget.
            bool lock_held = false;
            while (_m.memOp(tid, _pcLockProbe, caddr, false, 0, true) !=
                   0) {
                lock_held = true;
                _m.compute(tid, _cfg.backoffBase);
            }
            if (lock_held)
                continue;
        }
        ++attempts;
        if (attempts >= _cfg.maxRetries) {
            FaultInjector &faults = _m.faults();
            if (faults.enabled() &&
                faults.shouldFail(faultpoint::htmFallbackStuck)) {
                // Injected pathology: the fallback rung refuses the
                // real lock and re-enters retry. Every refusal feeds
                // the storm window, so the watchdog (when armed)
                // trips the site and cuts the loop; with it disabled
                // this is a genuine livelock the chaos oracle must
                // flag.
                ++_statFallbackStuck;
                _m.compute(tid, _cfg.fallbackStallCost);
                noteStorm(site, caddr);
                if (site.mode == SiteState::Mode::LockOnly ||
                    _globalLockOnly) {
                    break;
                }
                attempts = 0;
                continue;
            }
            break;
        }
        // Capped exponential backoff, staggered per thread: under the
        // deterministic scheduler symmetric delays re-align mutually
        // aborting txns so they collide forever; the tid-scaled term
        // is the deterministic stand-in for randomized backoff.
        Cycles backoff = (_cfg.backoffBase + tid * (_cfg.backoffBase / 2))
                         << (attempts - 1);
        if (backoff > _cfg.backoffCap)
            backoff = _cfg.backoffCap;
        _m.compute(tid, backoff);
    }

    // Graceful degradation: this entry takes the real lock.
    ++_statFallbacks;
    noteStorm(site, caddr);
    return false;
}

bool
HtmRuntime::onMutexUnlock(ThreadId tid, Addr caddr)
{
    if (!_m.txnActive(tid) || elidedSiteOf(tid) != caddr)
        return false;
    // If a conflict lands while the commit cost drains, the txn is
    // aborted out from under this frame and control re-emerges at
    // txnBegin -- the lines below only run for a real commit.
    bool conflict = _m.txnConflictObserved(tid);
    _m.compute(tid, _cfg.commitCost);
    _m.txnCommit(tid);
    _probe.afterTxnCommit("htm-elide", conflict);
    elidedSiteOf(tid) = 0;
    return true;
}

void
HtmRuntime::noteStorm(SiteState &site, Addr caddr)
{
    if (!_cfg.robust.watchdogEnabled ||
        site.mode == SiteState::Mode::LockOnly) {
        return;
    }
    Cycles now = _m.sched().now();
    if (now - site.windowStart > _cfg.stormWindow) {
        site.windowStart = now;
        site.fallbacksInWindow = 0;
    }
    if (++site.fallbacksInWindow >= _cfg.stormThreshold)
        tripSite(site, caddr, now);
}

void
HtmRuntime::tripSite(SiteState &site, Addr caddr, Cycles now)
{
    site.mode = SiteState::Mode::LockOnly;
    site.trippedAt = now;
    ++_lockedSites;
    ++_statStormTrips;
    ++_statLadderDrops;
    warn("htm: abort storm at lock %#lx (%u fallbacks in window); "
         "site -> lock-only",
         static_cast<unsigned long>(caddr), site.fallbacksInWindow);
    if (_trace) {
        _trace->recordHere(obs::EventKind::WatchdogFlush,
                           static_cast<std::uint64_t>(
                               _statStormTrips.value()),
                           caddr, "htm abort storm");
        _trace->recordHere(obs::EventKind::LadderDrop, 1, caddr,
                           "elide -> partial-lockdown");
    }
    if (!_globalLockOnly &&
        static_cast<std::uint64_t>(_statStormTrips.value()) >=
            _cfg.robust.watchdogMaxFlushes) {
        _globalLockOnly = true;
        ++_statLadderDrops;
        warn("htm: %lu storm trips; degrading to lock-only globally",
             static_cast<unsigned long>(_statStormTrips.value()));
        if (_trace) {
            _trace->recordHere(obs::EventKind::LadderDrop, 2, 0,
                               "partial-lockdown -> lock-only");
        }
    }
}

bool
HtmRuntime::tryRecoverUp(SiteState &site, Addr caddr, Cycles now)
{
    if (_cfg.robust.recoverUpWindows == 0)
        return false;
    Cycles quiet = static_cast<Cycles>(_cfg.robust.recoverUpWindows) *
                   _cfg.stormWindow;
    if (now - site.trippedAt < quiet)
        return false;
    site.mode = SiteState::Mode::Elide;
    site.fallbacksInWindow = 0;
    site.windowStart = now;
    TMI_ASSERT(_lockedSites > 0);
    --_lockedSites;
    ++_statLadderRecovers;
    inform("htm: lock %#lx quiet for %u windows; recovering to elide",
           static_cast<unsigned long>(caddr),
           _cfg.robust.recoverUpWindows);
    if (_trace) {
        _trace->recordHere(obs::EventKind::LadderRecover, 1, caddr,
                           "partial-lockdown -> elide");
    }
    return true;
}

void
HtmRuntime::harvest(RunResult &res)
{
    res.repairActive = elisionActive();
    res.txnCommits = _m.txnCommitCount();
    res.txnAborts = _m.txnAbortCount();
    res.txnFallbackLocks = fallbackLocks();
    res.commits = res.txnCommits; // commits/s column analogue
    res.ladderRung = rungName();
    res.watchdogFlushes = watchdogFlushes();
    res.ladderDrops = ladderDrops();
    res.ladderRecovers = ladderRecovers();
    res.invariantViolations = _probe.violations();
}

void
HtmRuntime::regStats(stats::StatGroup &group)
{
    group.addScalar("htmFallbackLocks", &_statFallbacks,
                    "entries that fell back to the real lock");
    group.addScalar("htmStormTrips", &_statStormTrips,
                    "abort-storm watchdog trips (site -> lock-only)");
    group.addScalar("htmLadderDrops", &_statLadderDrops,
                    "elision ladder rungs dropped");
    group.addScalar("htmLadderRecovers", &_statLadderRecovers,
                    "sites recovered to elision after quiet windows");
    group.addScalar("htmFallbackStuck", &_statFallbackStuck,
                    "injected fallback refusals (htm.fallback_stuck)");
    group.addScalar("htmAbortConflict", &_statAbortConflict,
                    "aborts: remote-Modified hit inside the txn");
    group.addScalar("htmAbortRemote", &_statAbortRemote,
                    "aborts: another thread hit our read/write set");
    group.addScalar("htmAbortCapacity", &_statAbortCapacity,
                    "aborts: bounded set capacity overflow");
    group.addScalar("htmAbortSpurious", &_statAbortSpurious,
                    "aborts: injected htm.spurious_abort");
    group.addScalar("htmAbortNested", &_statAbortNested,
                    "aborts: nested sync inside the txn");
    _probe.regStats(group);
}

} // namespace tmi
