/**
 * @file
 * The Tmi runtime (paper section 3).
 *
 * Tmi is compatible-by-default: applications run essentially
 * untouched while a detection thread consumes PEBS HITM records.
 * Only when meaningful false sharing is detected does Tmi stop the
 * application, convert each thread into a process (giving it a
 * private page table), and enable the page twinning store buffer on
 * exactly the pages that exhibit false sharing. Code-centric
 * consistency keeps the PTSB out of atomic and assembly regions so
 * their memory-model guarantees survive.
 *
 * Modes:
 *  - AllocOnly: only the process-shared allocator redirection
 *    (the paper's tmi-alloc bars in Figure 7);
 *  - DetectOnly: adds perf monitoring, the detection thread, and
 *    process-shared sync redirection (tmi-detect);
 *  - DetectAndRepair: full system (tmi-protect).
 *
 * The configured mode is also the top of a *degradation ladder*: the
 * runtime drops one rung at a time (DetectAndRepair -> DetectOnly ->
 * AllocOnly) when its own machinery misbehaves -- T2P conversion
 * failing repeatedly, a repair that costs more than it saves, a
 * PTSB-induced livelock, or persistently unreliable perf sampling.
 * Every rung keeps the application correct; each drop only sheds an
 * optimization. Transitions are logged with warn() and counted.
 */

#ifndef TMI_RUNTIME_TMI_RUNTIME_HH
#define TMI_RUNTIME_TMI_RUNTIME_HH

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "consistency/ccc.hh"
#include "core/machine.hh"
#include "detect/detector.hh"
#include "ptsb/ptsb.hh"
#include "runtime/invariants.hh"
#include "runtime/repair_runtime.hh"
#include "runtime/robustness.hh"

namespace tmi
{

/** Operating mode of the runtime (also a ladder rung, see above). */
enum class TmiMode
{
    AllocOnly,
    DetectOnly,
    DetectAndRepair,
};

/** Human-readable rung name ("alloc-only", ..., for logs and CSVs). */
const char *tmiModeName(TmiMode mode);

/** Tmi runtime configuration. */
struct TmiConfig
{
    TmiMode mode = TmiMode::DetectAndRepair;
    /** Code-centric consistency on/off (off reproduces Fig. 11/12). */
    bool cccEnabled = true;
    /** Ablation: protect the whole heap instead of targeted pages. */
    bool ptsbEverywhere = false;

    DetectorConfig detector;
    PtsbCosts ptsbCosts;
    RobustnessConfig robust;

    /**
     * Simulated cycles between detector analyses. The paper analyzes
     * once per second on minute-long runs; our runs are ~10-100 ms
     * of simulated time, so the cadence is scaled to match
     * (documented in EXPERIMENTS.md).
     */
    Cycles analysisInterval = 2'000'000;

    /** ptrace stop + trampoline + fork, charged per converted thread
     *  (Table 3 reports the total under 200 us). */
    Cycles t2pCostPerThread = 110'000;

    /** Modeled per-thread perf ring size for Figure 8 accounting
     *  (the paper attributes ~90 MB to perf buffers + detector
     *  structures on small apps). */
    std::uint64_t modeledRingBytesPerThread = 16ULL << 20;

    bool operator==(const TmiConfig &) const = default;
};

/** Collect TmiConfig constraint violations under @p prefix. */
void validateConfig(const TmiConfig &config,
                    std::vector<ConfigError> &errors,
                    const std::string &prefix = "TmiConfig");

/** The Tmi runtime: implements every Machine hook. */
class TmiRuntime : public RepairRuntime
{
  public:
    TmiRuntime(Machine &machine, const TmiConfig &config = {});

    /**
     * Install hooks, wire the COW callbacks, and (except in AllocOnly
     * mode) launch the per-application detection thread. Call before
     * spawning any application thread. Rejects nonsensical configs
     * with fatal().
     */
    void attach() override;

    /** @name RuntimeHooks */
    /// @{
    void onThreadCreate(ThreadId tid) override;
    void onThreadExit(ThreadId tid) override;
    bool bypassPrivate(ThreadId tid) override;
    bool atomicsBypassPrivate() override;
    void onAtomicOp(ThreadId tid, MemOrder order,
                    bool is_rmw) override;
    void onRegionEnter(ThreadId tid, RegionKind kind) override;
    void onRegionExit(ThreadId tid) override;
    Addr onSyncObjectInit(ThreadId tid, Addr va) override;
    void onSyncAcquire(ThreadId tid) override;
    void onSyncRelease(ThreadId tid) override;
    void onHeapGrow(VPage first, std::uint64_t n) override;
    /// @}

    /** @name Experiment queries */
    /// @{
    /** True while converted threads have pages under the PTSB (an
     *  un-repair turns this back off). */
    bool repairActive() const
    {
        return _converted && !_protectedPages.empty();
    }

    /** Simulated time at which repair engaged (Table 3 Unrepaired). */
    Cycles repairStartCycles() const { return _repairStart; }

    /** Total thread-to-process conversion time (Table 3 T2P). */
    Cycles t2pCycles() const { return _t2pTotal; }

    /** Total PTSB commits across all converted threads. */
    std::uint64_t totalCommits() const;

    /** Racy-merge bytes observed across all PTSBs (should be zero
     *  for data-race-free programs, Lemma 3.1). */
    std::uint64_t totalConflictBytes() const;

    /** Pages currently under targeted protection. */
    std::size_t protectedPageCount() const
    {
        return _protectedPages.size();
    }

    /**
     * Tmi's memory overhead beyond the application's own
     * allocations: perf rings, detector metadata, twins, and the
     * internal process-shared region (Figure 8).
     */
    std::uint64_t overheadBytes() const;

    Detector &detector() { return _detector; }
    CodeCentricConsistency &ccc() { return _ccc; }
    /// @}

    /** @name Robustness queries */
    /// @{
    /** Current degradation-ladder rung (== cfg.mode until a drop). */
    TmiMode rung() const { return _rung; }

    /** Aborted-and-rolled-back T2P transactions. */
    std::uint64_t t2pAborts() const
    {
        return static_cast<std::uint64_t>(_statT2pAborts.value());
    }

    /** Times repair was rolled back (dissolved) after engaging. */
    unsigned unrepairs() const { return _unrepairs; }

    /** Watchdog force-flush events. */
    unsigned watchdogFires() const { return _watchdogFires; }

    /** COW faults degraded to plain shared writes (page lost its
     *  isolation but stayed correct). */
    std::uint64_t cowFallbacks() const
    {
        return static_cast<std::uint64_t>(_statCowFallbacks.value());
    }

    /** Ladder transitions taken. */
    std::uint64_t ladderDrops() const
    {
        return static_cast<std::uint64_t>(_statLadderDrops.value());
    }

    /** Rungs climbed back by the RecoverUp policy. */
    std::uint64_t ladderRecovers() const
    {
        return static_cast<std::uint64_t>(
            _statLadderRecovers.value());
    }

    /** Ladder-transition invariant probe (chaos oracle). */
    const InvariantProbe &invariants() const { return _invariants; }
    /// @}

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group) override;

    void harvest(RunResult &res) override;

  private:
    void detectionLoop(ThreadApi &api);

    /**
     * Transactionally convert every running thread. On any per-thread
     * failure (clone fault, thread refusing to stop) the whole batch
     * is rolled back: already-converted threads rejoin their original
     * process and their PTSBs are destroyed, leaving the address-space
     * state exactly as before the attempt.
     *
     * @return true when every thread converted.
     */
    bool tryConvertAllThreads();

    /**
     * Drive tryConvertAllThreads with exponential backoff up to
     * robust.t2pMaxAttempts; exhausting the budget degrades to
     * DetectOnly.
     */
    bool engageRepair();

    /** @return the new pid, or invalidProcessId when the clone
     *  failed (caller decides how to degrade). */
    ProcessId convertThread(ThreadId tid);

    void protectPageEverywhere(VPage vpage);
    void commitThread(ThreadId tid);

    /**
     * Roll repair back: commit and unprotect everything, everywhere.
     * Threads stay processes (their page tables are now all-shared,
     * which is behaviourally identical to unconverted threads), so
     * repair can re-engage later by re-protecting pages.
     *
     * @return cycle cost of the dissolution, to charge the caller.
     */
    Cycles unrepair(const char *reason);

    /** One-way ladder transition with logging (no-op if already at
     *  or below @p mode). */
    void degradeTo(TmiMode mode, const char *reason);

    /** Drop a rung due to persistently lossy perf sampling. */
    void checkPerfHealth(Cycles window);

    /** Un-repair when measured overhead dwarfs the HITM benefit. */
    void updateEffectiveness(Cycles window);

    /** Force-commit PTSBs stuck with old dirty twins (livelock). */
    void runWatchdog(Cycles window);

    /**
     * RecoverUp: after robust.recoverUpWindows consecutive clean
     * windows on a degraded rung, climb one rung back toward the
     * configured mode and reset the failure budgets. Called once per
     * analysis window, after all the health checks have judged it.
     */
    void maybeRecoverUp();

    Machine &_m;
    TmiConfig _cfg;
    InvariantProbe _invariants;
    /** The machine's recorder, or null when tracing is off. */
    obs::TraceRecorder *_trace;
    CodeCentricConsistency _ccc;
    Detector _detector;

    std::unordered_map<ProcessId, std::unique_ptr<Ptsb>> _ptsbs;
    std::unordered_set<VPage> _protectedPages;
    bool _converted = false;
    Cycles _repairStart = 0;
    Cycles _t2pTotal = 0;

    TmiMode _rung;

    // Effectiveness-monitor state.
    double _preRepairHitmRate = 0;  //!< EMA while un-repaired
    std::uint64_t _lastHitm = 0;
    Cycles _windowOverhead = 0;     //!< commits + twin copies
    unsigned _regressStreak = 0;
    unsigned _windowsSinceRepair = 0;
    unsigned _windowsSinceUnrepair = 0;
    unsigned _unrepairs = 0;

    // Perf-health state.
    std::uint64_t _lastLost = 0;
    std::uint64_t _lastEmitted = 0;
    unsigned _lossStreak = 0;

    // Watchdog state.
    struct PtsbWatch
    {
        std::uint64_t lastCommits = 0;
        Cycles stall = 0;
    };
    std::unordered_map<ProcessId, PtsbWatch> _watch;
    unsigned _watchdogFires = 0;

    // RecoverUp state.
    unsigned _cleanWindows = 0; //!< consecutive clean windows
    bool _dirtyWindow = false;  //!< health event hit this window

    stats::Scalar _statConversions;
    stats::Scalar _statPageProtections;
    stats::Scalar _statSyncRedirects;
    stats::Scalar _statFlushCommits;
    stats::Scalar _statT2pAborts;
    stats::Scalar _statUnrepairs;
    stats::Scalar _statWatchdogFlushes;
    stats::Scalar _statLadderDrops;
    stats::Scalar _statLadderRecovers;
    stats::Scalar _statCowFallbacks;
};

} // namespace tmi

#endif // TMI_RUNTIME_TMI_RUNTIME_HH
