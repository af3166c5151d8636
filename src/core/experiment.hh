/**
 * @file
 * Experiment driver: runs one (workload x treatment) cell of the
 * paper's evaluation matrix and extracts every number the tables and
 * figures need.
 *
 * Treatments correspond to the bars in Figures 7 and 9:
 * pthreads / manual are uninstrumented baselines; tmi-alloc /
 * tmi-detect / tmi-protect are Tmi's three activation levels;
 * sheriff-detect / sheriff-protect and laser are the prior systems;
 * ptsb-everywhere and tmi-protect-no-ccc are the ablations of
 * sections 4.3 and 4.5.
 */

#ifndef TMI_CORE_EXPERIMENT_HH
#define TMI_CORE_EXPERIMENT_HH

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "obs/metrics.hh"

namespace tmi
{

/** Which runtime (if any) supervises the run. */
enum class Treatment
{
    Pthreads,        //!< plain execution, Lockless allocator
    Manual,          //!< source-level fix (padding/alignment)
    TmiAlloc,        //!< Tmi's process-shared allocator only
    TmiDetect,       //!< + perf monitoring and detection thread
    TmiProtect,      //!< full Tmi with online repair
    TmiProtectNoCcc, //!< PTSB everywhere, CCC off (Fig. 11/12)
    PtsbEverywhere,  //!< repair protects the whole heap (ablation)
    SheriffDetect,   //!< Sheriff detection tool
    SheriffProtect,  //!< Sheriff repair tool
    Laser,           //!< LASER detection + store-buffer repair
    HuronStatic,     //!< Huron-style offline profile -> layout replay
    HtmElide,        //!< speculative lock elision over the MESI sim
};

/** Name as used in reports. */
const char *treatmentName(Treatment t);

/** One-line description (CLI --list-treatments output). */
const char *treatmentDescription(Treatment t);

/** Every treatment, in declaration (= report) order. */
const std::vector<Treatment> &allTreatments();

/** Parse a report-style name ("tmi-protect"); null on no match. */
const Treatment *tryParseTreatment(const std::string &name);

/**
 * Malloc-placement policy: a sensitivity axis over where the
 * allocator puts small objects, orthogonal to the treatment. Under
 * htm-elide it moves the abort rate (objects packed onto shared lines
 * conflict; isolated ones commit); under pthreads it moves the HITM
 * count the same direction. Default leaves the treatment's own
 * allocator settings alone.
 */
enum class PlacementPolicy
{
    Default, //!< treatment's own allocator configuration
    Pack,    //!< glibc-like shared arena: dense 16B packing
    Arena,   //!< per-thread size-class arenas
    Isolate, //!< per-thread arenas + line-aligned small objects
};

/** Name as used in reports/CSV ("default", "pack", ...). */
const char *placementName(PlacementPolicy p);

/** Every placement policy, in declaration order. */
const std::vector<PlacementPolicy> &allPlacements();

using ParamList = std::vector<std::pair<std::string, std::string>>;
using FaultList = std::vector<std::pair<std::string, FaultSpec>>;

/**
 * Every field that identifies one cell of the evaluation matrix,
 * declared once as X(type, name, default). The list generates the
 * ExperimentConfig members and the resume fingerprint that pins a
 * journal directory to its jobs (driver/supervisor.cc).
 */
#define TMI_EXPERIMENT_CONFIG_FIELDS(X)                                       \
    X(std::string, workload, )                                                \
    X(Treatment, treatment, Treatment::Pthreads)                              \
    X(unsigned, threads, 4)                                                   \
    X(std::uint64_t, scale, 1)                                                \
    X(unsigned, pageShift, smallPageShift)                                    \
    X(AllocatorKind, allocator, AllocatorKind::Lockless)                      \
    /** Malloc-placement sensitivity axis; Default = leave the                \
     *  treatment's allocator configuration alone. */                         \
    X(PlacementPolicy, placement, PlacementPolicy::Default)                   \
    X(std::uint64_t, perfPeriod, 100)                                         \
    /** Detector repair threshold (estimated FS events/sec/page). */          \
    X(double, repairThreshold, 100000.0)                                      \
    /** Detector analysis cadence in simulated cycles. */                     \
    X(Cycles, analysisInterval, 2'000'000)                                    \
    /** Simulated-cycle budget; exceeding it reports Timeout. */              \
    X(Cycles, budget, 400'000'000'000ULL)                                     \
    X(std::uint64_t, seed, 42)                                                \
    /** Capture the full component statistics dump in the result. */          \
    X(bool, dumpStats, false)                                                 \
    /** Workload-specific knobs as raw key=value pairs, validated             \
     *  against the workload's ParamSchema (workloads/params.hh) by           \
     *  validateConfig() and resolved into WorkloadParams::extra at           \
     *  run start. Order is the order given; later duplicates win. */         \
    X(ParamList, params, )                                                    \
    /** Fault points to arm on the machine (robustness experiments;           \
     *  empty = no injection anywhere on the hot path). */                    \
    X(FaultList, faults, )                                                    \
    X(std::uint64_t, faultSeed, 0xfa17u)                                      \
    /** PTSB livelock watchdog: -1 treatment default (off for the             \
     *  no-CCC/everywhere ablations, which exist to reproduce the             \
     *  paper's failure modes), 0 force off, 1 force on. */                   \
    X(int, watchdog, -1)                                                      \
    /** Override RobustnessConfig::watchdogTimeout (0 = keep). */             \
    X(Cycles, watchdogTimeout, 0)                                             \
    /** Post-repair effectiveness monitor: same -1/0/1 convention. */         \
    X(int, monitor, -1)                                                       \
    /** TEST-ONLY: reintroduce Sheriff's dissolve-ordering bug (see           \
     *  SheriffConfig::buggyDissolveOrder). Exists so chaos                   \
     *  regression runs can replay the bug through the normal                 \
     *  experiment path. */                                                   \
    X(bool, sheriffBuggyDissolve, false)                                      \
    /** huron-static: a pre-computed layout plan (text format). When          \
     *  non-empty the profiling phase is skipped and the replay runs          \
     *  under this plan; other treatments ignore it. */                       \
    X(std::string, planIn, )                                                  \
    /** Structured event tracing: enabled, the run's drained                  \
     *  timeline and a unified metrics registry land in the                   \
     *  RunResult. */                                                         \
    X(obs::TraceConfig, trace, )

/** Declares one list entry as a member with its default. */
#define TMI_DECLARE_FIELD(type, name, ...) type name{__VA_ARGS__};

/** One cell of the evaluation matrix. */
struct ExperimentConfig
{
    TMI_EXPERIMENT_CONFIG_FIELDS(TMI_DECLARE_FIELD)

    /** Host-side cancellation token (not owned; null = none). When it
     *  becomes true the scheduler stops at the next fiber switch and
     *  the run reports RunOutcome::Timeout. The sweep driver uses
     *  this for per-job timeouts and sweep-wide cancellation. Not
     *  part of the job's identity, so it is not on the list. */
    const std::atomic<bool> *cancel = nullptr;

    bool operator==(const ExperimentConfig &) const = default;
};

/**
 * Largest run.scale validateConfig accepts. Scale multiplies every
 * workload's input size; no spec, recipe, test or bench default goes
 * above 8, and an unbounded value (a typo, or 2^64-1) would run until
 * killed instead of failing as a config error.
 */
inline constexpr std::uint64_t maxScale = 1024;

/** Collect ExperimentConfig constraint violations under @p prefix. */
void validateConfig(const ExperimentConfig &config,
                    std::vector<ConfigError> &errors,
                    const std::string &prefix = "ExperimentConfig");

/**
 * Every durable RunResult field, declared once as X(type, name,
 * default). The list generates the RunResult members and the journal
 * record codec and schema hash (driver/journal.cc).
 */
#define TMI_RUN_RESULT_FIELDS(X)                                              \
    X(std::string, workload, )                                                \
    X(Treatment, treatment, Treatment::Pthreads)                              \
    X(RunOutcome, outcome, RunOutcome::Completed)                             \
    X(bool, valid, false)                                                     \
    X(bool, compatible, false) /**< completed with correct results */         \
    /** Workload end-state digest (chaos oracle): the workload's              \
     *  resultDigest() over the shared committed view. Zero when the          \
     *  run did not complete or the workload defines no digest. */            \
    X(std::uint64_t, resultDigest, 0)                                         \
    X(Cycles, cycles, 0)                     /**< simulated makespan */       \
    X(double, seconds, 0)                    /**< cycles / cyclesPerSecond */ \
    X(std::uint64_t, hitmEvents, 0) /**< true coherence HITM count */         \
    X(std::uint64_t, pebsRecords, 0)         /**< sampled records emitted */  \
    X(double, fsEventsEstimated, 0)          /**< detector estimate */        \
    X(double, tsEventsEstimated, 0)                                           \
    X(bool, repairActive, false)                                              \
    X(Cycles, repairStartCycles, 0)          /**< Table 3 "Unrepaired" */     \
    X(Cycles, t2pCycles, 0)                  /**< Table 3 "T2P" */            \
    X(std::uint64_t, commits, 0)             /**< PTSB commits */             \
    X(double, commitsPerSec, 0)              /**< Table 3 "Commits/s" */      \
    X(std::uint64_t, pagesProtected, 0)                                       \
    /** Racy-merge bytes (nonzero = the PTSB raced; Lemma 3.1). */            \
    X(std::uint64_t, conflictBytes, 0)                                        \
    X(std::uint64_t, appBytesPeak, 0)        /**< application memory */       \
    X(std::uint64_t, overheadBytes, 0)       /**< runtime memory overhead */  \
    X(std::uint64_t, softFaults, 0)                                           \
    X(std::uint64_t, memOps, 0)                                               \
    /* Robustness telemetry (Tmi, Sheriff and LASER; zero / empty             \
     * for pthreads/manual). */                                               \
    /** Final degradation-ladder rung ("detect-and-repair" when               \
     *  nothing degraded; Sheriff reports "full-isolation" /                  \
     *  "partial-isolation" / "dissolved"; empty for the                      \
     *  uninstrumented baselines). */                                         \
    X(std::string, ladderRung, )                                              \
    X(std::uint64_t, faultFires, 0) /**< injected faults that fired */        \
    X(std::uint64_t, t2pAborts, 0)           /**< rolled-back conversions */  \
    X(std::uint64_t, unrepairs, 0)           /**< repair rollbacks */         \
    X(std::uint64_t, watchdogFlushes, 0)     /**< livelock force-commits */   \
    X(std::uint64_t, cowFallbacks, 0)        /**< pages degraded to shared */ \
    X(std::uint64_t, ladderDrops, 0)         /**< rung transitions taken */   \
    X(std::uint64_t, ladderRecovers, 0)      /**< rungs climbed back up */    \
    /** Ladder-transition invariant probe failures (see                       \
     *  runtime/invariants.hh); nonzero means the runtime broke its           \
     *  own transition contract even if results happen to be right. */        \
    X(std::uint64_t, invariantViolations, 0)                                  \
    /* Transactional telemetry (htm-elide; zero otherwise). */                \
    X(std::uint64_t, txnCommits, 0)          /**< speculative commits */      \
    X(std::uint64_t, txnAborts, 0)           /**< aborts, all causes */       \
    X(std::uint64_t, txnFallbackLocks, 0)    /**< entries on the real lock */ \
    /* Tail latency (workloads with a latencyHistogram(); zero for            \
     * the batch kernels). */                                                 \
    X(std::uint64_t, requests, 0) /**< completed requests recorded */         \
    X(double, sojournP50, 0) /**< median sojourn, sim cycles */               \
    X(double, sojournP99, 0)                                                  \
    X(double, sojournP999, 0)                                                 \
    /* Static repair (huron-static; zero/empty otherwise). Residual           \
     * false sharing after the repair is hitmEvents -- the replay's           \
     * coherence HITM count -- against planProfileHitms from the              \
     * unrepaired profiling phase. */                                         \
    X(std::uint64_t, planSites, 0)           /**< directives in the plan */   \
    X(std::uint64_t, planAppliedSites, 0)    /**< allocations placed */       \
    X(std::uint64_t, planPaddingBytes, 0)    /**< extra bytes of layout */    \
    X(std::uint64_t, planRedirectedSites, 0) /**< with redirection tables */  \
    X(std::uint64_t, planProfileHitms, 0)    /**< profiling-phase HITMs */    \
    /** The plan the replay ran under (text format; --plan-out). */           \
    X(std::string, planText, )                                                \
    /* Trace counters (only when trace.enabled). */                           \
    X(std::uint64_t, traceRecorded, 0) /**< events the recorder accepted */   \
    X(std::uint64_t, traceOverwritten, 0) /**< lost to ring wraparound */

/** Everything measured from one run: the durable list above plus the
 *  debugging payloads, which are never journaled. */
struct RunResult
{
    TMI_RUN_RESULT_FIELDS(TMI_DECLARE_FIELD)

    /** Full stats dump (only when ExperimentConfig::dumpStats). */
    std::string statsText;
    /** Time-ordered timeline drained from the recorder at run end
     *  (only when trace.enabled). */
    std::vector<obs::TraceEvent> traceEvents;
    /** Unified metrics registry built from every component's stats
     *  (populated when dumpStats or tracing is on; shared so
     *  RunResult stays copyable). */
    std::shared_ptr<obs::MetricsRegistry> metrics;
};

/** Run one experiment cell. */
RunResult runExperiment(const ExperimentConfig &config);

/** "ok", or why not: "HANG", "DEADLOCK" or "WRONG" (results). */
const char *outcomeStr(const RunResult &res);

/** Speedup of @p treated relative to @p baseline (by sim time). */
double speedup(const RunResult &baseline, const RunResult &treated);

/** @name Robustness-sweep CSV format
 *  The column set the robustness figures consume; shared between the
 *  robustness_degradation bench and experiment_cli --csv-out so both
 *  produce byte-identical rows. */
/// @{
/** "workload,scenario,outcome,rung,slowdown,..." header line. */
const char *robustnessCsvHeader();

/** One run as a robustness-sweep row. @p scenario labels the fault
 *  configuration ("none", "clone-fail", ...); @p slowdown is cycles
 *  relative to the fault-free run (1.0 when there is no baseline). */
std::string robustnessCsvRow(const RunResult &res,
                             const std::string &scenario,
                             double slowdown);
/// @}

} // namespace tmi

#endif // TMI_CORE_EXPERIMENT_HH
