#include "laser.hh"

namespace tmi
{

namespace
{

DetectorConfig
detectorConfigFor(Machine &machine, const LaserConfig &config)
{
    DetectorConfig dc = config.detector;
    dc.samplePeriod = machine.config().perf.period;
    dc.cyclesPerSecond = machine.config().cyclesPerSecond;
    dc.pageShift = machine.config().pageShift;
    return dc;
}

} // namespace

LaserRuntime::LaserRuntime(Machine &machine, const LaserConfig &config)
    : _m(machine), _cfg(config), _trace(machine.trace()),
      _detector(machine.instructions(), machine.addressMap(),
                detectorConfigFor(machine, config))
{
}

void
LaserRuntime::attach()
{
    _m.setHooks(this);
    _m.spawnSystemThread(
        "laser-detector",
        [this](ThreadApi &api) { detectionLoop(api); },
        /*daemon=*/true);
}

std::uint64_t
LaserRuntime::syncOpsSoFar() const
{
    // Only full-fence operations force a TSO drain: lock operations
    // and atomic read-modify-writes. Plain atomic loads/stores ride
    // in the store buffer like ordinary accesses.
    return _m.sync().acquires() + _rmwAtomics;
}

bool
LaserRuntime::interceptAccess(ThreadId tid, Addr va, bool is_write,
                              Cycles &cost)
{
    (void)tid;
    if (_repairedPages.empty())
        return false;
    VPage vpage = va >> _m.config().pageShift;
    if (!_repairedPages.count(vpage))
        return false;
    ++_statBufferedAccesses;
    cost = is_write ? _cfg.bufferedStoreCost : _cfg.bufferedLoadCost;
    _windowOverhead += cost;
    return true;
}

void
LaserRuntime::onSyncAcquire(ThreadId tid)
{
    (void)tid;
    if (!_repairedPages.empty()) {
        ++_statDrains;
        _windowOverhead += _cfg.drainCost;
        _m.sched().advance(_cfg.drainCost);
    }
}

void
LaserRuntime::onSyncRelease(ThreadId tid)
{
    onSyncAcquire(tid);
}

void
LaserRuntime::onAtomicOp(ThreadId tid, MemOrder order, bool is_rmw)
{
    (void)tid;
    // TSO gives no relaxed escape hatch: every locked RMW is a full
    // fence and drains the software store buffer, regardless of the
    // C++ memory order.
    (void)order;
    if (!is_rmw)
        return;
    ++_rmwAtomics;
    if (!_repairedPages.empty()) {
        ++_statDrains;
        _windowOverhead += _cfg.drainCost;
        _m.sched().advance(_cfg.drainCost);
    }
}

void
LaserRuntime::detectionLoop(ThreadApi &api)
{
    Machine &m = api.machine();
    Cycles last = m.sched().now();
    std::uint64_t last_syncs = 0;
    std::vector<PebsRecord> records;
    while (true) {
        m.sched().sleepUntil(last + _cfg.analysisInterval);
        Cycles now = m.sched().now();
        Cycles window = now - last;

        records.clear();
        m.perf().drainAll(records);
        Cycles cost = 0;
        for (const auto &rec : records)
            cost += _detector.consume(rec);
        AnalysisResult res = _detector.analyze(window);
        cost += res.cost;
        m.sched().advance(cost);

        // Repair gate: frequent synchronization makes a TSO store
        // buffer unprofitable, so LASER leaves such programs alone.
        std::uint64_t syncs = syncOpsSoFar();
        double window_sec = static_cast<double>(window) /
                            m.config().cyclesPerSecond;
        double sync_rate =
            static_cast<double>(syncs - last_syncs) / window_sec;
        last = now;
        last_syncs = syncs;

        if (_cfg.robust.monitorEnabled) {
            checkPerfHealth(window);
            updateEffectiveness(window);
        }

        if (res.pagesToRepair.empty())
            continue;
        if (!_repairAllowed)
            continue;
        if (_cfg.robust.monitorEnabled &&
            _windowsSinceUnrepair < _cfg.robust.repairCooldownWindows &&
            _unrepairs > 0) {
            continue; // let caches settle before re-instrumenting
        }
        if (sync_rate > _cfg.maxSyncRatePerSec) {
            _declined = true;
            continue;
        }
        for (VPage vpage : res.pagesToRepair)
            _repairedPages.insert(vpage);
        // The store buffer just armed: un-snapshot interceptArmed.
        _m.accessEpoch().bump();
    }
}

void
LaserRuntime::checkPerfHealth(Cycles window)
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
    double frac = static_cast<double>(d_lost) /
                  static_cast<double>(d_lost + d_kept);
    if (frac > rc.lostRecordsFraction)
        ++_lossStreak;
    else
        _lossStreak = 0;
    if (_lossStreak < rc.lostRecordsWindows)
        return;
    _lossStreak = 0;

    // Repair decisions based on samples this lossy would be noise.
    if (repairActive())
        unrepair("perf sampling unreliable");
    degradeToDetectOnly("perf rings persistently overflowing");
}

void
LaserRuntime::updateEffectiveness(Cycles window)
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
        _windowsSinceRepair = 0;
        return;
    }
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
        static_cast<double>(overhead) > benefit * rc.regressFactor;
    _regressStreak = regressed ? _regressStreak + 1 : 0;
    if (_regressStreak >= rc.regressWindows)
        unrepair("DBI tax dwarfs the avoided-HITM benefit");
}

void
LaserRuntime::unrepair(const char *reason)
{
    // Removing DBI instrumentation is a code-patching operation, not
    // a memory operation: no pages move, no twins exist, so unlike
    // Tmi's PTSB dissolution it carries no simulated commit cost.
    _repairedPages.clear();
    _m.accessEpoch().bump();
    _regressStreak = 0;
    _windowsSinceRepair = 0;
    _windowsSinceUnrepair = 0;
    ++_unrepairs;
    ++_statUnrepairs;
    if (_trace)
        _trace->recordHere(obs::EventKind::Unrepair, _unrepairs, 0,
                           reason);
    warn("laser: un-repaired (%s); rollback %u of %u", reason,
         _unrepairs, _cfg.robust.maxUnrepairs);
    if (_unrepairs >= _cfg.robust.maxUnrepairs)
        degradeToDetectOnly("repair rollback budget exhausted");
}

void
LaserRuntime::degradeToDetectOnly(const char *reason)
{
    if (!_repairAllowed)
        return;
    warn("laser: degrading detect-and-repair -> detect-only (%s)",
         reason);
    if (_trace)
        _trace->recordHere(obs::EventKind::LadderDrop, 1, 0, reason);
    _repairAllowed = false;
    _m.accessEpoch().bump();
    ++_statLadderDrops;
}

void
LaserRuntime::harvest(RunResult &res)
{
    res.repairActive = repairActive();
    res.fsEventsEstimated = _detector.fsEventsEstimated();
    res.tsEventsEstimated = _detector.tsEventsEstimated();
    res.ladderRung = rungName();
    res.unrepairs = unrepairs();
    res.ladderDrops = ladderDrops();
}

void
LaserRuntime::regStats(stats::StatGroup &group)
{
    group.addScalar("bufferedAccesses", &_statBufferedAccesses,
                    "accesses serviced by the software store buffer");
    group.addScalar("drains", &_statDrains,
                    "TSO store-buffer drains at sync/atomic ops");
    group.addScalar("unrepairs", &_statUnrepairs,
                    "instrumentation rollbacks");
    group.addScalar("ladderDrops", &_statLadderDrops,
                    "degradation-ladder transitions");
    _detector.regStats(group);
}

} // namespace tmi
