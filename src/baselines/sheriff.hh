/**
 * @file
 * A Sheriff-like baseline runtime (Liu & Berger, OOPSLA 2011; paper
 * sections 2.2 and 4).
 *
 * Sheriff wraps every thread in a process from the moment it is
 * created and page-protects all of memory, running a PTSB
 * everywhere, always. That gives excellent false sharing repair --
 * close to manual fixes -- but two structural problems the paper
 * documents:
 *
 *  1. overhead without contention: every written page is twinned,
 *     diffed, and merged at every synchronization operation (27%
 *     average overhead in the paper);
 *  2. no code-centric consistency: atomics and inline assembly are
 *     buffered like plain stores, so programs that rely on them
 *     (canneal, leveldb, shptr-relaxed) produce wrong results or
 *     hang. In this reproduction those failures are emergent: the
 *     experiment driver observes validation failures and timeouts.
 *
 * sheriff-detect additionally pays a per-page analysis cost at each
 * commit (it inspects diffs to report sharing), making it heavier
 * than sheriff-protect.
 *
 * For apples-to-apples robustness sweeps against Tmi, Sheriff carries
 * the same RobustnessConfig and its own degradation ladder:
 * full-isolation -> partial-isolation (a clone failure exhausted its
 * retry budget, so some threads run plain) -> dissolved (the watchdog
 * or effectiveness monitor gave up on isolation entirely). The clone
 * retry loop is always armed; the watchdog and monitor default *off*
 * because stock Sheriff has no such machinery -- its documented
 * failure modes must stay emergent unless a sweep arms them via
 * ExperimentConfig::watchdog / ::monitor.
 */

#ifndef TMI_BASELINES_SHERIFF_HH
#define TMI_BASELINES_SHERIFF_HH

#include <memory>
#include <unordered_map>

#include "core/machine.hh"
#include "ptsb/ptsb.hh"
#include "runtime/invariants.hh"
#include "runtime/repair_runtime.hh"
#include "runtime/robustness.hh"

namespace tmi
{

/** Sheriff's degradation ladder (top to bottom). */
enum class SheriffRung
{
    Dissolved,        //!< isolation abandoned; plain execution
    PartialIsolation, //!< some threads could not be isolated
    FullIsolation,    //!< every thread in its own process
};

/** Human-readable rung name for logs and CSVs. */
const char *sheriffRungName(SheriffRung rung);

/** Sheriff configuration. */
struct SheriffConfig
{
    /** Detection flavor: extra per-page diff analysis at commits. */
    bool detectMode = false;
    PtsbCosts ptsbCosts;
    Cycles detectAnalysisPerPage = 2500;
    Cycles t2pCostPerThread = 110'000;

    /** Self-healing parity knobs (see file comment for defaults). */
    RobustnessConfig robust{.monitorEnabled = false,
                            .watchdogEnabled = false};
    /** Watchdog/monitor daemon cadence in simulated cycles. */
    Cycles monitorInterval = 2'000'000;

    /**
     * TEST-ONLY: reintroduce the dissolve-ordering bug this runtime
     * originally shipped with (the dissolution cost was paid --
     * yielding -- before the rung flipped, so a thread spawned inside
     * that window was converted and its PTSB never committed again:
     * lost writes). Exists so the chaos oracle's regression test can
     * prove it catches the bug; never set it outside tests.
     */
    bool buggyDissolveOrder = false;
};

/** Threads-as-processes, PTSB-everywhere runtime. */
class SheriffRuntime : public RepairRuntime
{
  public:
    SheriffRuntime(Machine &machine, const SheriffConfig &config = {});

    /** Install hooks, the COW callbacks, and (when the watchdog or
     *  monitor is armed) the supervision daemon. */
    void attach() override;

    void onThreadCreate(ThreadId tid) override;
    void onThreadExit(ThreadId tid) override { commitThread(tid); }
    bool atomicsBypassPrivate() override { return false; }
    Addr onSyncObjectInit(ThreadId tid, Addr va) override;
    void onSyncAcquire(ThreadId tid) override;
    void onSyncRelease(ThreadId tid) override;
    void onHeapGrow(VPage first, std::uint64_t n) override;

    /** Total PTSB commits across all threads. */
    std::uint64_t totalCommits() const;

    /** Racy-merge bytes across all PTSBs: Sheriff has no code-centric
     *  consistency, so atomics-based programs rack these up. */
    std::uint64_t totalConflictBytes() const;

    /** @name Robustness queries (parity with TmiRuntime) */
    /// @{
    SheriffRung rung() const { return _rung; }
    const char *rungName() const { return sheriffRungName(_rung); }

    /** Aborted address-space clone attempts. */
    std::uint64_t t2pAborts() const
    {
        return static_cast<std::uint64_t>(_statT2pAborts.value());
    }

    /** Times isolation was torn down after engaging (0 or 1: a
     *  dissolution is final for Sheriff). */
    std::uint64_t unrepairs() const
    {
        return static_cast<std::uint64_t>(_statUnrepairs.value());
    }

    /** Watchdog force-flush events. */
    unsigned watchdogFires() const { return _watchdogFires; }

    /** COW faults degraded to plain shared writes. */
    std::uint64_t cowFallbacks() const
    {
        return static_cast<std::uint64_t>(_statCowFallbacks.value());
    }

    /** Ladder transitions taken. */
    std::uint64_t ladderDrops() const
    {
        return static_cast<std::uint64_t>(_statLadderDrops.value());
    }

    /** Ladder-transition invariant probe (chaos oracle). */
    const InvariantProbe &invariants() const { return _invariants; }
    /// @}

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group) override;

    void harvest(RunResult &res) override;

  private:
    void commitThread(ThreadId tid);
    void supervisionLoop(ThreadApi &api);

    /** Force-commit PTSBs stuck with old dirty twins (the same
     *  livelock Tmi's watchdog breaks, e.g. cholesky's flag spin). */
    void runWatchdog(Cycles window);

    /** Dissolve isolation when its measured overhead dwarfs the
     *  coherence traffic it avoids. */
    void updateEffectiveness(Cycles window);

    /** Tear every PTSB down and fall to the Dissolved rung. */
    void dissolve(const char *reason);

    /** Shared dissolve bookkeeping + invariant probes. */
    void finishDissolve(const char *reason);

    /** One-way ladder transition with logging. */
    void degradeTo(SheriffRung rung, const char *reason);

    Machine &_m;
    SheriffConfig _cfg;
    InvariantProbe _invariants;
    /** The machine's recorder, or null when tracing is off. */
    obs::TraceRecorder *_trace;
    std::unordered_map<ProcessId, std::unique_ptr<Ptsb>> _ptsbs;

    SheriffRung _rung = SheriffRung::FullIsolation;

    // Effectiveness-monitor state: per-window isolation overhead
    // (commit + COW costs) against a merged-lines benefit proxy.
    Cycles _windowOverhead = 0;
    std::uint64_t _windowLinesMerged = 0;
    unsigned _windows = 0;
    unsigned _regressStreak = 0;

    // Watchdog state.
    struct PtsbWatch
    {
        std::uint64_t lastCommits = 0;
        Cycles stall = 0;
    };
    std::unordered_map<ProcessId, PtsbWatch> _watch;
    unsigned _watchdogFires = 0;

    stats::Scalar _statConversions;
    stats::Scalar _statCommits;
    stats::Scalar _statT2pAborts;
    stats::Scalar _statUnrepairs;
    stats::Scalar _statWatchdogFlushes;
    stats::Scalar _statLadderDrops;
    stats::Scalar _statCowFallbacks;
};

} // namespace tmi

#endif // TMI_BASELINES_SHERIFF_HH
