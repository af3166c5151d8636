/**
 * @file
 * A LASER-like baseline runtime (Luo et al., HPCA 2016).
 *
 * LASER detects contention exactly the way Tmi does -- PEBS HITM
 * sampling -- but repairs it with a *software store buffer* applied
 * to contended regions through dynamic binary instrumentation,
 * preserving full TSO semantics. The consequences the paper
 * documents, reproduced here by the cost model:
 *
 *  - repaired accesses avoid coherence traffic but pay an
 *    instrumentation tax on every load and store of a repaired page,
 *    so LASER captures only ~24% of the manual-fix speedup;
 *  - TSO requires draining the buffer at every synchronization or
 *    non-relaxed atomic operation, so LASER declines to repair
 *    workloads with frequent synchronization (the Boost
 *    microbenchmarks).
 *
 * For apples-to-apples robustness sweeps, LASER carries the same
 * RobustnessConfig as Tmi and Sheriff: when armed, an effectiveness
 * monitor un-repairs pages whose instrumentation tax dwarfs the
 * avoided-HITM benefit (the paper's histogram slowdown becomes a
 * recoverable event instead of a permanent tax), and a perf-health
 * pass stops repairing off persistently lossy sampling. Both default
 * *off*: stock LASER keeps its documented behaviour unless a sweep
 * arms them via ExperimentConfig::monitor. A PTSB watchdog does not
 * apply -- LASER's store buffer drains at every sync by
 * construction, so it cannot livelock the way an uncommitted PTSB
 * can.
 */

#ifndef TMI_BASELINES_LASER_HH
#define TMI_BASELINES_LASER_HH

#include <unordered_set>

#include "core/machine.hh"
#include "detect/detector.hh"
#include "runtime/repair_runtime.hh"
#include "runtime/robustness.hh"

namespace tmi
{

/** LASER configuration. */
struct LaserConfig
{
    DetectorConfig detector;
    Cycles analysisInterval = 2'000'000;
    /** DBI cost per instrumented load on a repaired page. */
    Cycles bufferedLoadCost = 10;
    /** DBI cost per instrumented store on a repaired page. */
    Cycles bufferedStoreCost = 26;
    /** TSO drain at each sync/atomic once repair is active. */
    Cycles drainCost = 900;
    /**
     * Repair gate: if the application performs more than this many
     * sync+atomic operations per simulated second, the store buffer
     * would thrash and LASER leaves the program unrepaired.
     */
    double maxSyncRatePerSec = 1e6;

    /** Self-healing parity knobs (see file comment for defaults;
     *  watchdogEnabled is ignored -- no PTSB to watch). */
    RobustnessConfig robust{.monitorEnabled = false,
                            .watchdogEnabled = false};
};

/** HITM detection + software-store-buffer repair runtime. */
class LaserRuntime : public RepairRuntime
{
  public:
    LaserRuntime(Machine &machine, const LaserConfig &config = {});

    /** Install hooks and launch the detection thread. */
    void attach() override;

    bool interceptAccess(ThreadId tid, Addr va, bool is_write,
                         Cycles &cost) override;
    bool interceptArmed() override { return !_repairedPages.empty(); }
    void onSyncAcquire(ThreadId tid) override;
    void onSyncRelease(ThreadId tid) override;
    void onAtomicOp(ThreadId tid, MemOrder order,
                    bool is_rmw) override;

    /** True once at least one page is being repaired. */
    bool repairActive() const { return !_repairedPages.empty(); }

    /** True if the sync-rate gate suppressed repair. */
    bool repairDeclined() const { return _declined; }

    Detector &detector() { return _detector; }

    /** @name Robustness queries (parity with TmiRuntime) */
    /// @{
    /** "detect-and-repair", or "detect-only" once the monitor gave
     *  up on store-buffer repair for this run. */
    const char *rungName() const
    {
        return _repairAllowed ? "detect-and-repair" : "detect-only";
    }

    /** Times repair was rolled back (instrumentation removed). */
    unsigned unrepairs() const { return _unrepairs; }

    /** Ladder transitions taken (at most 1: repair -> detect-only). */
    std::uint64_t ladderDrops() const
    {
        return static_cast<std::uint64_t>(_statLadderDrops.value());
    }
    /// @}

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group) override;

    void harvest(RunResult &res) override;

  private:
    void detectionLoop(ThreadApi &api);
    std::uint64_t syncOpsSoFar() const;

    /** Un-repair when the DBI tax dwarfs the avoided-HITM benefit. */
    void updateEffectiveness(Cycles window);

    /** Stop repairing off persistently lossy perf sampling. */
    void checkPerfHealth(Cycles window);

    /** Remove the instrumentation from every repaired page. */
    void unrepair(const char *reason);

    /** One-way drop to detect-only with logging. */
    void degradeToDetectOnly(const char *reason);

    Machine &_m;
    LaserConfig _cfg;
    /** The machine's recorder, or null when tracing is off. */
    obs::TraceRecorder *_trace;
    Detector _detector;
    std::unordered_set<VPage> _repairedPages;
    bool _declined = false;
    std::uint64_t _rmwAtomics = 0;

    bool _repairAllowed = true;

    // Effectiveness-monitor state (mirrors TmiRuntime).
    double _preRepairHitmRate = 0; //!< EMA while un-repaired
    std::uint64_t _lastHitm = 0;
    Cycles _windowOverhead = 0; //!< DBI taxes + drains
    unsigned _regressStreak = 0;
    unsigned _windowsSinceRepair = 0;
    unsigned _windowsSinceUnrepair = 0;
    unsigned _unrepairs = 0;

    // Perf-health state.
    std::uint64_t _lastLost = 0;
    std::uint64_t _lastEmitted = 0;
    unsigned _lossStreak = 0;

    stats::Scalar _statBufferedAccesses;
    stats::Scalar _statDrains;
    stats::Scalar _statUnrepairs;
    stats::Scalar _statLadderDrops;
};

} // namespace tmi

#endif // TMI_BASELINES_LASER_HH
