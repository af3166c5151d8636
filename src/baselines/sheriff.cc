#include "sheriff.hh"

namespace tmi
{

const char *
sheriffRungName(SheriffRung rung)
{
    switch (rung) {
      case SheriffRung::FullIsolation:
        return "full-isolation";
      case SheriffRung::PartialIsolation:
        return "partial-isolation";
      case SheriffRung::Dissolved:
        return "dissolved";
    }
    return "?";
}

SheriffRuntime::SheriffRuntime(Machine &machine,
                               const SheriffConfig &config)
    : _m(machine), _cfg(config), _invariants(machine),
      _trace(machine.trace())
{
}

void
SheriffRuntime::attach()
{
    _m.setHooks(this);
    _m.mmu().setCowCallback(
        [this](ProcessId pid, VPage vpage, PPage shared_frame,
               PPage private_frame) -> CowOutcome {
            auto it = _ptsbs.find(pid);
            if (it == _ptsbs.end())
                return {};
            CowOutcome out = it->second->onCowFault(
                vpage, shared_frame, private_frame);
            if (out.ok)
                _windowOverhead += out.cost;
            return out;
        });
    _m.mmu().setCowAbortCallback(
        [this](ProcessId pid, VPage vpage) {
            // The MMU reverted the page to SharedRW (no frame or no
            // twin). Writes go straight to shared memory; the page
            // loses isolation but the program stays correct.
            auto it = _ptsbs.find(pid);
            if (it != _ptsbs.end())
                it->second->forgetPage(vpage);
            ++_statCowFallbacks;
            if (_trace) {
                _trace->recordHere(obs::EventKind::CowFallback, vpage,
                                   pid);
            }
        });
    if (_cfg.robust.watchdogEnabled || _cfg.robust.monitorEnabled) {
        _m.spawnSystemThread(
            "sheriff-watchdog",
            [this](ThreadApi &api) { supervisionLoop(api); },
            /*daemon=*/true);
    }
}

void
SheriffRuntime::onThreadCreate(ThreadId tid)
{
    if (_rung == SheriffRung::Dissolved)
        return; // isolation abandoned: new threads run plain
    // Every thread runs as a process from birth, with all of the
    // heap protected. A clone failure is retried with backoff, the
    // same transactional-T2P policy Tmi applies (here the transaction
    // is a single thread, so the rollback is just the retry wait).
    const RobustnessConfig &rc = _cfg.robust;
    ProcessId pid = invalidProcessId;
    Cycles backoff = rc.t2pRetryBackoff;
    for (unsigned attempt = 1; attempt <= rc.t2pMaxAttempts;
         ++attempt) {
        pid = _m.mmu().cloneAddressSpace(_m.processOf(tid));
        if (pid != invalidProcessId)
            break;
        ++_statT2pAborts;
        if (_trace) {
            _trace->recordHere(obs::EventKind::T2pRollback, tid, 0,
                               "sheriff clone failed");
        }
        if (attempt == rc.t2pMaxAttempts)
            break;
        warn("sheriff: clone attempt %u/%u for thread %u failed; "
             "backing off %lu cycles",
             attempt, rc.t2pMaxAttempts,
             static_cast<unsigned>(tid),
             static_cast<unsigned long>(backoff));
        _m.sched().penalize(tid, rc.t2pAbortCost + backoff);
        backoff *= 2;
    }
    if (pid == invalidProcessId) {
        degradeTo(SheriffRung::PartialIsolation,
                  "address-space clone failed on every attempt; "
                  "thread stays plain");
        return;
    }
    _m.setThreadProcess(tid, pid);
    auto ptsb = std::make_unique<Ptsb>(_m.mmu(), pid, _cfg.ptsbCosts,
                                       &_m.cache(), &_m.faults());
    VPage heap_first = Machine::heapBase >> _m.config().pageShift;
    std::uint64_t heap_pages = _m.heapRegion().pages();
    Cycles cost = 0;
    for (std::uint64_t i = 0; i < heap_pages; ++i)
        cost += ptsb->protectPage(heap_first + i);
    _ptsbs.emplace(pid, std::move(ptsb));
    _m.sched().penalize(tid, _cfg.t2pCostPerThread + cost);
    ++_statConversions;
}

Addr
SheriffRuntime::onSyncObjectInit(ThreadId tid, Addr va)
{
    (void)tid;
    (void)va;
    // Processes cannot share plain pthread objects; Sheriff also
    // places them in process-shared memory.
    return _m.internalAlloc(lineBytes);
}

void
SheriffRuntime::onSyncAcquire(ThreadId tid)
{
    commitThread(tid);
}

void
SheriffRuntime::onSyncRelease(ThreadId tid)
{
    commitThread(tid);
}

void
SheriffRuntime::onHeapGrow(VPage first, std::uint64_t n)
{
    if (_rung == SheriffRung::Dissolved)
        return;
    Cycles cost = 0;
    for (auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        for (std::uint64_t i = 0; i < n; ++i)
            cost += ptsb->protectPage(first + i);
    }
    if (cost && _m.sched().current())
        _m.sched().advance(cost);
}

void
SheriffRuntime::commitThread(ThreadId tid)
{
    if (_rung == SheriffRung::Dissolved)
        return;
    auto it = _ptsbs.find(_m.processOf(tid));
    if (it == _ptsbs.end())
        return;
    CommitResult res = it->second->commit();
    ++_statCommits;
    Cycles cost = res.cost;
    if (_cfg.detectMode)
        cost += _cfg.detectAnalysisPerPage * res.pagesDiffed;
    _windowOverhead += cost;
    _windowLinesMerged += res.linesMerged;
    _m.sched().advance(cost);
}

void
SheriffRuntime::supervisionLoop(ThreadApi &api)
{
    Machine &m = api.machine();
    Cycles last = m.sched().now();
    while (true) {
        m.sched().sleepUntil(last + _cfg.monitorInterval);
        Cycles now = m.sched().now();
        Cycles window = now - last;
        last = now;
        if (_rung == SheriffRung::Dissolved) {
            _windowOverhead = 0;
            _windowLinesMerged = 0;
            continue;
        }
        if (_cfg.robust.watchdogEnabled)
            runWatchdog(window);
        if (_cfg.robust.monitorEnabled &&
            _rung != SheriffRung::Dissolved) {
            updateEffectiveness(window);
        }
    }
}

void
SheriffRuntime::runWatchdog(Cycles window)
{
    const RobustnessConfig &rc = _cfg.robust;
    Cycles flush_cost = 0;
    bool fired = false;
    for (auto &[pid, ptsb] : _ptsbs) {
        PtsbWatch &w = _watch[pid];
        std::uint64_t commits = ptsb->commits();
        if (ptsb->dirtyPages() == 0 || commits != w.lastCommits) {
            w.lastCommits = commits;
            w.stall = 0;
            continue;
        }
        w.stall += window;
        if (w.stall < rc.watchdogTimeout)
            continue;
        // This process holds buffered writes nobody else can see and
        // has not committed for the whole stall -- the same livelock
        // Tmi's watchdog breaks (Figure 12). Committing on its behalf
        // is the flush the thread would eventually issue.
        CommitResult res = ptsb->commit();
        flush_cost += res.cost;
        w.stall = 0;
        w.lastCommits = ptsb->commits();
        fired = true;
        if (_trace)
            _trace->recordHere(obs::EventKind::WatchdogFlush, pid);
    }
    if (!fired)
        return;
    ++_watchdogFires;
    ++_statWatchdogFlushes;
    warn("sheriff: watchdog force-committed stalled PTSB(s), fire %u "
         "of %u",
         _watchdogFires, rc.watchdogMaxFlushes);
    _m.sched().advance(flush_cost);
    if (_watchdogFires >= rc.watchdogMaxFlushes)
        dissolve("repeated PTSB-induced livelock");
}

void
SheriffRuntime::updateEffectiveness(Cycles window)
{
    const RobustnessConfig &rc = _cfg.robust;
    Cycles overhead = _windowOverhead;
    std::uint64_t merged = _windowLinesMerged;
    _windowOverhead = 0;
    _windowLinesMerged = 0;
    if (window == 0)
        return;
    if (++_windows <= rc.monitorWarmupWindows)
        return;
    // Sheriff isolates from birth, so there is no pre-repair HITM
    // baseline to learn (unlike Tmi). Each merged line stands in for
    // a coherence transfer isolation avoided: every one was a write
    // that would otherwise have invalidated the line under a sharer.
    double benefit = static_cast<double>(merged) *
                     static_cast<double>(rc.hitmCostEstimate);
    bool regressed =
        static_cast<double>(overhead) >
            static_cast<double>(window) * rc.minOverheadFraction &&
        static_cast<double>(overhead) > benefit * rc.regressFactor;
    _regressStreak = regressed ? _regressStreak + 1 : 0;
    if (_regressStreak >= rc.regressWindows)
        dissolve("isolation overhead dwarfs its benefit");
}

void
SheriffRuntime::dissolve(const char *reason)
{
    if (_cfg.buggyDissolveOrder) {
        // TEST-ONLY: the pre-fix ordering. Paying the dissolution
        // cost first yields this fiber while the rung still reads
        // FullIsolation; a thread spawned in that window is converted
        // and its PTSB never commits again (lost writes). Kept behind
        // the flag so the chaos oracle's regression test can prove it
        // catches exactly this bug.
        Cycles cost = 0;
        for (auto &[pid, ptsb] : _ptsbs) {
            (void)pid;
            cost += ptsb->dissolve();
        }
        if (_m.sched().current())
            _m.sched().advance(cost);
        degradeTo(SheriffRung::Dissolved, reason);
        finishDissolve(reason);
        return;
    }
    // Drop the rung BEFORE paying the dissolution cost: advance()
    // yields this fiber, and a thread created during that window
    // must see Dissolved and stay plain -- converting it would leave
    // a PTSB nobody ever commits again (lost writes).
    degradeTo(SheriffRung::Dissolved, reason);
    Cycles cost = 0;
    for (auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        cost += ptsb->dissolve();
    }
    finishDissolve(reason);
    if (_m.sched().current())
        _m.sched().advance(cost);
}

void
SheriffRuntime::finishDissolve(const char *reason)
{
    _m.flushTlbs();
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        _invariants.afterDissolve("sheriff dissolve", *ptsb);
    }
    _invariants.afterUnrepair("sheriff dissolve");
    _watch.clear();
    _regressStreak = 0;
    ++_statUnrepairs;
    if (_trace)
        _trace->recordHere(obs::EventKind::Unrepair, 1, 0, reason);
    warn("sheriff: isolation dissolved (%s)", reason);
}

void
SheriffRuntime::degradeTo(SheriffRung rung, const char *reason)
{
    if (static_cast<int>(rung) >= static_cast<int>(_rung))
        return;
    warn("sheriff: degrading %s -> %s (%s)", sheriffRungName(_rung),
         sheriffRungName(rung), reason);
    if (_trace) {
        _trace->recordHere(obs::EventKind::LadderDrop,
                           static_cast<std::uint64_t>(_rung),
                           static_cast<std::uint64_t>(rung), reason);
    }
    _rung = rung;
    ++_statLadderDrops;
    // Rung changes alter hook behaviour: kill the access-path caches.
    _m.accessEpoch().bump();
}

std::uint64_t
SheriffRuntime::totalCommits() const
{
    std::uint64_t n = 0;
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        n += ptsb->commits();
    }
    return n;
}

std::uint64_t
SheriffRuntime::totalConflictBytes() const
{
    std::uint64_t n = 0;
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        n += ptsb->conflictBytes();
    }
    return n;
}

void
SheriffRuntime::harvest(RunResult &res)
{
    res.repairActive = true;
    res.commits = totalCommits();
    res.conflictBytes = totalConflictBytes();
    res.overheadBytes = _m.internalBytes();
    res.ladderRung = rungName();
    res.t2pAborts = t2pAborts();
    res.unrepairs = unrepairs();
    res.watchdogFlushes = watchdogFires();
    res.cowFallbacks = cowFallbacks();
    res.ladderDrops = ladderDrops();
    res.invariantViolations = _invariants.violations();
}

void
SheriffRuntime::regStats(stats::StatGroup &group)
{
    group.addScalar("conversions", &_statConversions,
                    "threads wrapped in processes");
    group.addScalar("commitCalls", &_statCommits,
                    "PTSB commit invocations");
    group.addScalar("t2pAborts", &_statT2pAborts,
                    "aborted address-space clone attempts");
    group.addScalar("unrepairs", &_statUnrepairs,
                    "isolation dissolutions");
    group.addScalar("watchdogFlushes", &_statWatchdogFlushes,
                    "watchdog force-commit events");
    group.addScalar("ladderDrops", &_statLadderDrops,
                    "degradation-ladder transitions");
    group.addScalar("cowFallbacks", &_statCowFallbacks,
                    "COW faults degraded to shared writes");
    _invariants.regStats(group);
}

} // namespace tmi
