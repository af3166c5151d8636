#include "tmi_runtime.hh"

namespace tmi
{

namespace
{

DetectorConfig
detectorConfigFor(Machine &machine, const TmiConfig &config)
{
    DetectorConfig dc = config.detector;
    dc.samplePeriod = machine.config().perf.period;
    dc.cyclesPerSecond = machine.config().cyclesPerSecond;
    dc.pageShift = machine.config().pageShift;
    return dc;
}

} // namespace

const char *
tmiModeName(TmiMode mode)
{
    switch (mode) {
      case TmiMode::AllocOnly:
        return "alloc-only";
      case TmiMode::DetectOnly:
        return "detect-only";
      case TmiMode::DetectAndRepair:
        return "detect-and-repair";
    }
    return "unknown";
}

TmiRuntime::TmiRuntime(Machine &machine, const TmiConfig &config)
    : _m(machine), _cfg(config), _invariants(machine),
      _trace(machine.trace()), _ccc(config.cccEnabled),
      _detector(machine.instructions(), machine.addressMap(),
                detectorConfigFor(machine, config)),
      _rung(config.mode)
{
}

void
validateConfig(const TmiConfig &config,
               std::vector<ConfigError> &errors,
               const std::string &prefix)
{
    if (config.analysisInterval == 0) {
        errors.push_back(
            {prefix + ".analysisInterval",
             "must be nonzero: the detection thread would re-run "
             "analysis every cycle without ever letting the "
             "application advance"});
    }
    if (config.robust.t2pMaxAttempts == 0) {
        errors.push_back(
            {prefix + ".robust.t2pMaxAttempts",
             "must be >= 1: zero attempts means repair can never "
             "engage, which is DetectOnly mode spelled confusingly"});
    }
    if (config.robust.watchdogEnabled &&
        config.robust.watchdogTimeout < config.analysisInterval) {
        errors.push_back(
            {prefix + ".robust.watchdogTimeout",
             "is below the analysis interval: every window with a "
             "dirty twin would be flushed, destroying the PTSB's "
             "benefit"});
    }
    validateConfig(config.detector, errors, prefix + ".detector");
}

void
TmiRuntime::attach()
{
    std::vector<ConfigError> errors;
    validateConfig(_cfg, errors);
    fatalIfConfigErrors(errors);
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
            // twin). Writes go straight to shared memory -- exactly
            // the unrepaired behaviour -- so only isolation is lost.
            auto it = _ptsbs.find(pid);
            if (it != _ptsbs.end())
                it->second->forgetPage(vpage);
            ++_statCowFallbacks;
            if (_trace) {
                _trace->recordHere(obs::EventKind::CowFallback, vpage,
                                   pid);
            }
        });
    if (_cfg.mode != TmiMode::AllocOnly) {
        _m.spawnSystemThread(
            "tmi-detector",
            [this](ThreadApi &api) { detectionLoop(api); },
            /*daemon=*/true);
    }
}

void
TmiRuntime::onThreadCreate(ThreadId tid)
{
    _ccc.threadStart(tid);
    if (_converted) {
        // Repair is already active: a newly created pthread is born
        // converted, with every targeted page protected.
        ProcessId pid = convertThread(tid);
        if (pid == invalidProcessId) {
            // Clone failed: the thread stays in its parent's process
            // and shares its parent's PTSB view. Less isolation, same
            // semantics (a per-process buffer, as in Sheriff).
            warn("tmi: could not isolate new thread %u; it remains "
                 "in its parent's process",
                 static_cast<unsigned>(tid));
            return;
        }
        Ptsb &ptsb = *_ptsbs.at(pid);
        for (VPage vpage : _protectedPages)
            ptsb.protectPage(vpage);
    }
}

void
TmiRuntime::onThreadExit(ThreadId tid)
{
    // Thread exit has release semantics (a joiner must observe all
    // of the thread's writes): publish any buffered pages.
    commitThread(tid);
}

bool
TmiRuntime::bypassPrivate(ThreadId tid)
{
    return _ccc.mustBypassPrivate(tid);
}

bool
TmiRuntime::atomicsBypassPrivate()
{
    // Running atomics directly on shared pages is how Tmi preserves
    // their atomicity (section 3.4.1 case 2). Disabling CCC removes
    // that protection, reproducing the Sheriff failure mode.
    return _cfg.cccEnabled;
}

void
TmiRuntime::onAtomicOp(ThreadId tid, MemOrder order, bool is_rmw)
{
    // Code-centric consistency keys the flush on the memory order
    // alone: relaxed operations only require atomicity, which
    // running on shared pages already provides (section 3.4.1).
    (void)is_rmw;
    if (_ccc.atomicOpNeedsFlush(order))
        commitThread(tid);
}

void
TmiRuntime::onRegionEnter(ThreadId tid, RegionKind kind)
{
    if (_ccc.regionEnter(tid, kind))
        commitThread(tid);
}

void
TmiRuntime::onRegionExit(ThreadId tid)
{
    _ccc.regionExit(tid);
}

Addr
TmiRuntime::onSyncObjectInit(ThreadId tid, Addr va)
{
    (void)tid;
    if (_cfg.mode == TmiMode::AllocOnly)
        return va;
    // Sync objects must be process-shared in case repair engages, so
    // every one is replaced by a pointer to a cache-line-sized object
    // in Tmi's internal region (section 3.2). This indirection is
    // also what fixes spinlockpool's false sharing automatically.
    ++_statSyncRedirects;
    return _m.internalAlloc(lineBytes);
}

void
TmiRuntime::onSyncAcquire(ThreadId tid)
{
    commitThread(tid);
}

void
TmiRuntime::onSyncRelease(ThreadId tid)
{
    commitThread(tid);
}

void
TmiRuntime::onHeapGrow(VPage first, std::uint64_t n)
{
    if (!repairActive() || !_cfg.ptsbEverywhere)
        return;
    for (std::uint64_t i = 0; i < n; ++i)
        protectPageEverywhere(first + i);
}

void
TmiRuntime::commitThread(ThreadId tid)
{
    if (!_converted)
        return;
    auto it = _ptsbs.find(_m.processOf(tid));
    if (it == _ptsbs.end())
        return;
    CommitResult res = it->second->commit();
    ++_statFlushCommits;
    _windowOverhead += res.cost;
    if (_trace && res.pagesDiffed > 0) {
        _trace->recordHere(obs::EventKind::PtsbCommit,
                           res.bytesChanged, res.cost);
    }
    _m.sched().advance(res.cost);
}

ProcessId
TmiRuntime::convertThread(ThreadId tid)
{
    ProcessId pid = _m.mmu().cloneAddressSpace(_m.processOf(tid));
    if (pid == invalidProcessId)
        return invalidProcessId;
    _m.setThreadProcess(tid, pid);
    _ptsbs.emplace(pid, std::make_unique<Ptsb>(_m.mmu(), pid,
                                               _cfg.ptsbCosts,
                                               &_m.cache(),
                                               &_m.faults()));
    // The converted thread was stopped under ptrace, ran the
    // trampoline, and forked; charge it that stall.
    _m.sched().penalize(tid, _cfg.t2pCostPerThread);
    _t2pTotal += _cfg.t2pCostPerThread;
    ++_statConversions;
    return pid;
}

bool
TmiRuntime::tryConvertAllThreads()
{
    struct Conversion
    {
        ThreadId tid;
        ProcessId oldPid;
        ProcessId newPid;
    };
    std::vector<Conversion> done;
    FaultInjector &faults = _m.faults();

    auto rollback = [&](const char *why, ThreadId culprit) {
        warn("tmi: T2P transaction aborted at thread %u (%s); "
             "rolling back %zu converted thread(s)",
             static_cast<unsigned>(culprit), why, done.size());
        for (auto it = done.rbegin(); it != done.rend(); ++it) {
            _m.setThreadProcess(it->tid, it->oldPid);
            _ptsbs.erase(it->newPid);
            // Un-fork + resume stall for the victim of the rollback.
            _m.sched().penalize(it->tid, _cfg.robust.t2pAbortCost);
        }
        ++_statT2pAborts;
        if (_trace) {
            _trace->recordHere(obs::EventKind::T2pRollback, culprit,
                               0, why);
        }
    };

    for (ThreadId tid : _m.appThreads()) {
        if (_m.sched().thread(tid).state() ==
            SimThread::State::Finished) {
            continue;
        }
        if (faults.enabled() &&
            faults.shouldFail(faultpoint::schedStopTimeout)) {
            // The thread never reached its ptrace stop point (stuck
            // in an uninterruptible syscall, say): without a stopped
            // thread there is nothing safe to fork.
            rollback("refused to stop", tid);
            return false;
        }
        ProcessId old_pid = _m.processOf(tid);
        ProcessId new_pid = convertThread(tid);
        if (new_pid == invalidProcessId) {
            rollback("address-space clone failed", tid);
            return false;
        }
        done.push_back({tid, old_pid, new_pid});
    }
    _converted = true;
    _m.flushTlbs();
    if (_trace) {
        _trace->recordHere(obs::EventKind::T2pCommit, done.size(),
                           done.size() * _cfg.t2pCostPerThread);
    }
    return true;
}

bool
TmiRuntime::engageRepair()
{
    const RobustnessConfig &rc = _cfg.robust;
    Cycles backoff = rc.t2pRetryBackoff;
    for (unsigned attempt = 1; attempt <= rc.t2pMaxAttempts;
         ++attempt) {
        if (_trace)
            _trace->recordHere(obs::EventKind::T2pBegin, attempt);
        if (tryConvertAllThreads())
            return true;
        if (attempt == rc.t2pMaxAttempts)
            break;
        warn("tmi: T2P attempt %u/%u failed; backing off %lu cycles",
             attempt, rc.t2pMaxAttempts,
             static_cast<unsigned long>(backoff));
        _m.sched().sleepUntil(_m.sched().now() + backoff);
        backoff *= 2;
    }
    degradeTo(TmiMode::DetectOnly,
              "T2P conversion failed on every attempt");
    return false;
}

void
TmiRuntime::protectPageEverywhere(VPage vpage)
{
    if (!_protectedPages.insert(vpage).second)
        return;
    ++_statPageProtections;
    if (_trace)
        _trace->recordHere(obs::EventKind::PageProtect, vpage);
    Cycles cost = 0;
    for (auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        cost += ptsb->protectPage(vpage);
    }
    _m.flushTlbs();
    _m.sched().advance(cost);
}

Cycles
TmiRuntime::unrepair(const char *reason)
{
    Cycles cost = 0;
    for (auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        cost += ptsb->dissolve();
    }
    _protectedPages.clear();
    _m.flushTlbs();
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        _invariants.afterDissolve("tmi un-repair", *ptsb);
    }
    _invariants.afterUnrepair("tmi un-repair");
    _watch.clear();
    _regressStreak = 0;
    _windowsSinceRepair = 0;
    _windowsSinceUnrepair = 0;
    _watchdogFires = 0;
    ++_unrepairs;
    ++_statUnrepairs;
    _dirtyWindow = true;
    if (_trace) {
        _trace->recordHere(obs::EventKind::Unrepair, _unrepairs, 0,
                           reason);
    }
    warn("tmi: un-repaired (%s); rollback %u of %u", reason,
         _unrepairs, _cfg.robust.maxUnrepairs);
    if (_unrepairs >= _cfg.robust.maxUnrepairs) {
        degradeTo(TmiMode::DetectOnly,
                  "repair rollback budget exhausted");
    }
    return cost;
}

void
TmiRuntime::degradeTo(TmiMode mode, const char *reason)
{
    if (static_cast<int>(mode) >= static_cast<int>(_rung))
        return;
    std::uint64_t epoch_before = _invariants.epochBefore();
    warn("tmi: degrading %s -> %s (%s)", tmiModeName(_rung),
         tmiModeName(mode), reason);
    if (_trace) {
        _trace->recordHere(obs::EventKind::LadderDrop,
                           static_cast<std::uint64_t>(_rung),
                           static_cast<std::uint64_t>(mode), reason);
    }
    _rung = mode;
    ++_statLadderDrops;
    _dirtyWindow = true;
    _cleanWindows = 0;
    // Rung changes alter hook behaviour: kill the access-path caches.
    _m.accessEpoch().bump();
    _invariants.checkEpochBumped("tmi ladder drop", epoch_before);
}

void
TmiRuntime::maybeRecoverUp()
{
    const RobustnessConfig &rc = _cfg.robust;
    bool dirty = _dirtyWindow;
    _dirtyWindow = false;
    if (rc.recoverUpWindows == 0)
        return;
    if (static_cast<int>(_rung) >= static_cast<int>(_cfg.mode))
        return; // not degraded; nothing to recover
    if (dirty) {
        _cleanWindows = 0;
        return;
    }
    if (++_cleanWindows < rc.recoverUpWindows)
        return;
    _cleanWindows = 0;
    std::uint64_t epoch_before = _invariants.epochBefore();
    TmiMode from = _rung;
    _rung = static_cast<TmiMode>(static_cast<int>(_rung) + 1);
    // A recovered rung starts with fresh failure budgets; otherwise
    // the first post-recovery hiccup would instantly re-drop.
    _unrepairs = 0;
    _watchdogFires = 0;
    _regressStreak = 0;
    _lossStreak = 0;
    ++_statLadderRecovers;
    warn("tmi: recovering %s -> %s after %u clean windows",
         tmiModeName(from), tmiModeName(_rung), rc.recoverUpWindows);
    if (_trace) {
        _trace->recordHere(obs::EventKind::LadderRecover,
                           static_cast<std::uint64_t>(from),
                           static_cast<std::uint64_t>(_rung),
                           "clean-window streak");
    }
    // Re-armed hooks change access behaviour: kill the caches.
    _m.accessEpoch().bump();
    _invariants.checkEpochBumped("tmi ladder recover", epoch_before);
}

void
TmiRuntime::checkPerfHealth(Cycles window)
{
    (void)window;
    const RobustnessConfig &rc = _cfg.robust;
    std::uint64_t lost = _m.perf().recordsLost();
    std::uint64_t emitted = _m.perf().recordsEmitted();
    std::uint64_t d_lost = lost - _lastLost;
    std::uint64_t d_kept = emitted - _lastEmitted;
    _lastLost = lost;
    _lastEmitted = emitted;

    if (d_lost + d_kept < rc.lostRecordsMinSamples)
        return; // too few samples to judge this window
    double frac =
        static_cast<double>(d_lost) /
        static_cast<double>(d_lost + d_kept);
    if (frac > rc.lostRecordsFraction) {
        ++_lossStreak;
        _dirtyWindow = true;
    } else {
        _lossStreak = 0;
    }
    if (_lossStreak < rc.lostRecordsWindows)
        return;
    _lossStreak = 0;

    if (_rung == TmiMode::DetectAndRepair) {
        // Repair decisions based on samples this lossy would be
        // noise; keep observing, stop acting.
        if (repairActive()) {
            _m.sched().advance(
                unrepair("perf sampling unreliable"));
        }
        degradeTo(TmiMode::DetectOnly,
                  "perf rings persistently overflowing");
    } else if (_rung == TmiMode::DetectOnly) {
        degradeTo(TmiMode::AllocOnly,
                  "perf still unreliable; stopping the sampler");
    }
}

void
TmiRuntime::updateEffectiveness(Cycles window)
{
    const RobustnessConfig &rc = _cfg.robust;
    std::uint64_t hitm = _m.cache().hitmEvents();
    std::uint64_t window_hitm = hitm - _lastHitm;
    _lastHitm = hitm;
    Cycles overhead = _windowOverhead;
    _windowOverhead = 0;
    if (window == 0)
        return;

    if (!repairActive()) {
        // Learn the baseline HITM rate so a later repair has
        // something to be compared against.
        double rate = static_cast<double>(window_hitm) /
                      static_cast<double>(window);
        _preRepairHitmRate = _preRepairHitmRate == 0.0
                                 ? rate
                                 : 0.75 * _preRepairHitmRate +
                                       0.25 * rate;
        ++_windowsSinceUnrepair;
        return;
    }
    if (!rc.monitorEnabled)
        return;
    if (++_windowsSinceRepair <= rc.monitorWarmupWindows)
        return;

    double avoided = _preRepairHitmRate *
                         static_cast<double>(window) -
                     static_cast<double>(window_hitm);
    double benefit =
        avoided > 0
            ? avoided * static_cast<double>(rc.hitmCostEstimate)
            : 0.0;
    bool regressed =
        static_cast<double>(overhead) >
            static_cast<double>(window) * rc.minOverheadFraction &&
        static_cast<double>(overhead) >
            benefit * rc.regressFactor;
    _regressStreak = regressed ? _regressStreak + 1 : 0;
    if (regressed)
        _dirtyWindow = true;
    if (_regressStreak >= rc.regressWindows) {
        _m.sched().advance(
            unrepair("repair overhead dwarfs its HITM benefit"));
    }
}

void
TmiRuntime::runWatchdog(Cycles window)
{
    const RobustnessConfig &rc = _cfg.robust;
    if (!rc.watchdogEnabled || !repairActive())
        return;
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
        // This process has buffered writes nobody else can see and
        // has not committed for the whole stall: the Figure 12
        // cholesky livelock. Committing on its behalf is always
        // safe -- it is the flush the thread would eventually issue.
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
    _dirtyWindow = true;
    warn("tmi: watchdog force-committed stalled PTSB(s), fire %u "
         "of %u",
         _watchdogFires, rc.watchdogMaxFlushes);
    _m.sched().advance(flush_cost);
    if (_watchdogFires >= rc.watchdogMaxFlushes) {
        _m.sched().advance(
            unrepair("repeated PTSB-induced livelock"));
        degradeTo(TmiMode::DetectOnly,
                  "watchdog flush budget exhausted");
    }
}

void
TmiRuntime::detectionLoop(ThreadApi &api)
{
    Machine &m = api.machine();
    Cycles last = m.sched().now();
    std::vector<PebsRecord> records;
    while (true) {
        m.sched().sleepUntil(last + _cfg.analysisInterval);
        Cycles now = m.sched().now();
        Cycles window = now - last;
        last = now;

        if (_rung == TmiMode::AllocOnly) {
            // Ladder floor: sampling proved useless, so records are
            // discarded undecoded. Only the allocator and sync
            // redirection (which need no thread) keep working.
            records.clear();
            m.perf().drainAll(records);
            // Floor windows are trivially clean (nothing can fire);
            // RecoverUp is the only way off the floor.
            maybeRecoverUp();
            continue;
        }

        records.clear();
        m.perf().drainAll(records);
        Cycles cost = 0;
        for (const auto &rec : records)
            cost += _detector.consume(rec);

        AnalysisResult res = _detector.analyze(window);
        cost += res.cost;
        m.sched().advance(cost);
        if (_trace) {
            _trace->recordHere(obs::EventKind::AnalysisWindow,
                               records.size(),
                               res.pagesToRepair.size());
        }

        checkPerfHealth(window);
        updateEffectiveness(window);
        runWatchdog(window);
        maybeRecoverUp();

        if (_rung != TmiMode::DetectAndRepair)
            continue;
        if (res.pagesToRepair.empty())
            continue;
        if (_unrepairs > 0 &&
            _windowsSinceUnrepair <
                _cfg.robust.repairCooldownWindows) {
            continue; // hysteresis: no repair/un-repair flapping
        }

        if (_trace) {
            _trace->recordHere(obs::EventKind::RepairEngage,
                               res.pagesToRepair.size());
        }
        if (!_converted) {
            Cycles t0 = m.sched().now();
            if (!engageRepair())
                continue;
            _repairStart = t0;
        }
        for (VPage vpage : res.pagesToRepair)
            protectPageEverywhere(vpage);
        if (_cfg.ptsbEverywhere) {
            VPage heap_first =
                Machine::heapBase >> m.config().pageShift;
            std::uint64_t heap_pages = m.heapRegion().pages();
            for (std::uint64_t i = 0; i < heap_pages; ++i)
                protectPageEverywhere(heap_first + i);
        }
    }
}

std::uint64_t
TmiRuntime::totalCommits() const
{
    std::uint64_t n = 0;
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        n += ptsb->commits();
    }
    return n;
}

std::uint64_t
TmiRuntime::totalConflictBytes() const
{
    std::uint64_t n = 0;
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        n += ptsb->conflictBytes();
    }
    return n;
}

std::uint64_t
TmiRuntime::overheadBytes() const
{
    std::uint64_t twin_bytes = 0;
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        twin_bytes += ptsb->twinBytes();
    }
    std::uint64_t ring_bytes = 0;
    if (_cfg.mode != TmiMode::AllocOnly) {
        ring_bytes = _cfg.modeledRingBytesPerThread *
                     _m.appThreads().size();
    }
    return ring_bytes + _detector.metadataBytes() + twin_bytes +
           _m.internalBytes();
}

void
TmiRuntime::harvest(RunResult &res)
{
    res.repairActive = repairActive();
    res.repairStartCycles = repairStartCycles();
    res.t2pCycles = t2pCycles();
    res.commits = totalCommits();
    res.conflictBytes = totalConflictBytes();
    res.pagesProtected = protectedPageCount();
    res.overheadBytes = overheadBytes();
    res.fsEventsEstimated = _detector.fsEventsEstimated();
    res.tsEventsEstimated = _detector.tsEventsEstimated();
    res.ladderRung = tmiModeName(_rung);
    res.t2pAborts = t2pAborts();
    res.unrepairs = unrepairs();
    res.watchdogFlushes = watchdogFires();
    res.cowFallbacks = cowFallbacks();
    res.ladderDrops = ladderDrops();
    res.ladderRecovers = ladderRecovers();
    res.invariantViolations = _invariants.violations();
}

void
TmiRuntime::regStats(stats::StatGroup &group)
{
    group.addScalar("t2pConversions", &_statConversions,
                    "threads converted to processes");
    group.addScalar("pagesProtected", &_statPageProtections,
                    "distinct pages placed under the PTSB");
    group.addScalar("syncRedirects", &_statSyncRedirects,
                    "sync objects moved to process-shared memory");
    group.addScalar("flushCommits", &_statFlushCommits,
                    "PTSB commits triggered by hooks");
    group.addScalar("t2pAborts", &_statT2pAborts,
                    "T2P transactions aborted and rolled back");
    group.addScalar("unrepairs", &_statUnrepairs,
                    "repairs rolled back (PTSB dissolved)");
    group.addScalar("watchdogFlushes", &_statWatchdogFlushes,
                    "watchdog force-commits of stalled PTSBs");
    group.addScalar("ladderDrops", &_statLadderDrops,
                    "degradation-ladder transitions");
    group.addScalar("ladderRecovers", &_statLadderRecovers,
                    "rungs climbed back by the RecoverUp policy");
    group.addScalar("cowFallbacks", &_statCowFallbacks,
                    "COW faults degraded to shared writes");
    _invariants.regStats(group);
    _detector.regStats(group);
    _ccc.regStats(group);
}

} // namespace tmi
