/**
 * @file
 * Deterministic, seeded fault injection for the simulated stack.
 *
 * Real deployments of Tmi sit on unreliable foundations: PEBS drops
 * and corrupts records, fork can fail mid-conversion, twin pages may
 * be unobtainable under memory pressure, and a thread can refuse to
 * stop at the T2P stop point. The FaultInjector lets experiments and
 * tests arm *named fault points* at those layers and have them fire
 * on a deterministic, replayable schedule.
 *
 * Each armed point owns its own xoshiro stream seeded from
 * (global seed, hash(point name)), so a point's fire pattern depends
 * only on its own query sequence -- arming or querying other points
 * never perturbs it, and a failing run replays exactly from the seed.
 *
 * Querying an unarmed point is a hash lookup on a usually-empty
 * table; the `enabled()` fast path lets hot code skip even that.
 * Fault checks never charge simulated cycles, so a run with no armed
 * points is cycle-identical to one on a build without the framework.
 */

#ifndef TMI_FAULT_FAULT_INJECTOR_HH
#define TMI_FAULT_FAULT_INJECTOR_HH

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"

namespace tmi
{

namespace obs
{
class TraceRecorder;
} // namespace obs

/** Canonical fault point names (one per injectable failure). */
namespace faultpoint
{
/** PEBS ring buffer full: the record is dropped and counted lost. */
inline constexpr const char *perfRingOverflow = "perf.ring_overflow";
/** The PEBS assist loses the record entirely (no ring slot used). */
inline constexpr const char *perfDropRecord = "perf.drop_record";
/** The sampled data address is corrupted beyond the usual skid. */
inline constexpr const char *perfCorruptAddr = "perf.corrupt_addr";
/** The sampled PC misses the instruction table (wild PC). */
inline constexpr const char *perfWildPc = "perf.wild_pc";
/** Physical memory exhausted at a COW fault: no private frame. */
inline constexpr const char *memFrameExhausted = "mem.frame_exhausted";
/** fork() fails while cloning an address space mid-T2P. */
inline constexpr const char *memCloneFail = "mem.clone_fail";
/** Twin snapshot allocation fails at a COW fault. */
inline constexpr const char *ptsbTwinAllocFail = "ptsb.twin_alloc_fail";
/** A commit degenerates (cold caches, huge diff): cost inflates. */
inline constexpr const char *ptsbOversizeCommit = "ptsb.oversize_commit";
/** A thread refuses to stop at the T2P stop point in budget. */
inline constexpr const char *schedStopTimeout = "sched.stop_timeout";
/** The allocator's per-object metadata is corrupted at free(): the
 *  size-class record is unreadable, so the object leaks instead of
 *  being recycled. */
inline constexpr const char *allocMetadataCorrupt =
    "alloc.metadata_corrupt";
/** A size class cannot refill its slab (address space / arena
 *  exhaustion); the request falls back to the large-object path. */
inline constexpr const char *allocSizeClassExhausted =
    "alloc.size_class_exhausted";
/** A speculative region aborts with no architectural cause (the
 *  hardware reserves the right; firmware erratas exercise it). */
inline constexpr const char *htmSpuriousAbort = "htm.spurious_abort";
/** Capacity accounting books a touched line twice: the txn aborts
 *  earlier than its true read/write footprint warrants. */
inline constexpr const char *htmCapacityMisaccount =
    "htm.capacity_misaccount";
/** The fallback path refuses the real lock and re-enters retry --
 *  the livelock-by-abort failure the abort-storm watchdog guards. */
inline constexpr const char *htmFallbackStuck = "htm.fallback_stuck";
} // namespace faultpoint

/** One entry of the canonical fault-point registry. */
struct FaultPointInfo
{
    const char *name;    //!< e.g. "perf.ring_overflow"
    const char *summary; //!< one-line description for --list output
};

/**
 * When an armed point fires. Triggers compose: a query fires if ANY
 * armed trigger matches, subject to the @ref maxFires cap and -- when
 * a firing window is set -- only while simulated time is inside it.
 */
struct FaultSpec
{
    /** Per-query fire probability (0 disables the random trigger). */
    double probability = 0.0;
    /** Fire on exactly the Nth query, 1-based (0 disables). */
    std::uint64_t fireAt = 0;
    /** Fire on every Nth query (0 disables). */
    std::uint64_t everyNth = 0;
    /** Stop firing after this many fires (0 = unlimited). */
    std::uint64_t maxFires = 0;

    /**
     * Scheduled firing: gate every trigger on simulated time being in
     * [windowStart, windowEnd) cycles. Both zero = always eligible;
     * windowEnd zero alone = unbounded window from windowStart. The
     * per-point random stream still advances outside the window, so a
     * windowed point's draw sequence stays a pure function of its
     * query index (replayable byte-for-byte from the seed).
     */
    std::uint64_t windowStart = 0;
    std::uint64_t windowEnd = 0;

    /**
     * Burst trigger: fire on @ref burstLen consecutive queries out of
     * every @ref burstPeriod (0 disables). Models clustered failures
     * such as a perf ring overflowing for a stretch of samples.
     */
    std::uint64_t burstLen = 0;
    std::uint64_t burstPeriod = 0;

    /** A point that always fires. */
    static FaultSpec
    always()
    {
        FaultSpec spec;
        spec.probability = 1.0;
        return spec;
    }

    /** A point that fires once, on the Nth query. */
    static FaultSpec
    once(std::uint64_t nth = 1)
    {
        FaultSpec spec;
        spec.fireAt = nth;
        spec.maxFires = 1;
        return spec;
    }

    /** A point that fires each query with probability @p p. */
    static FaultSpec
    withProbability(double p)
    {
        FaultSpec spec;
        spec.probability = p;
        return spec;
    }

    /** Restrict this spec to the cycle window [start, end). */
    FaultSpec
    inWindow(std::uint64_t start, std::uint64_t end) const
    {
        FaultSpec spec = *this;
        spec.windowStart = start;
        spec.windowEnd = end;
        return spec;
    }

    bool operator==(const FaultSpec &) const = default;
};

/** Registry of armed fault points; owned by the Machine. */
class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 0xfa17u);

    /**
     * The canonical fault-point registry: every injectable point with
     * a one-line summary, in a stable documented order. This is the
     * single source of truth for `--list-fault-points` and for chaos
     * schedule generation over "all points".
     */
    static std::span<const FaultPointInfo> allPoints();

    /** Empty when @p point is in allPoints(); otherwise why not,
     *  listing every valid name (config validation message). */
    static std::string unknownPointError(std::string_view point);

    /** Arm (or re-arm, resetting counters) @p point with @p spec. */
    void arm(std::string_view point, const FaultSpec &spec);

    /** Disarm @p point; later queries return false again. */
    void disarm(std::string_view point);

    /** True if at least one point is armed (hot-path gate). */
    bool enabled() const { return !_points.empty(); }

    /**
     * Query @p point: should the operation it guards fail now?
     *
     * Deterministic given the seed and this point's query count;
     * unarmed points never fail.
     */
    bool shouldFail(std::string_view point);

    /** Times @p point has been queried. */
    std::uint64_t queries(std::string_view point) const;

    /** Times @p point has fired. */
    std::uint64_t fires(std::string_view point) const;

    /** Names of currently armed points, sorted (introspection). */
    std::vector<std::string> armedPoints() const;

    /** Total fires across all points. */
    std::uint64_t
    totalFires() const
    {
        return static_cast<std::uint64_t>(_statFires.value());
    }

    /** Seed the per-point streams derive from. */
    std::uint64_t seed() const { return _seed; }

    /** Wire the trace recorder: every fire emits a FaultFire event
     *  carrying the point name and fire ordinal (null disables). */
    void setTrace(obs::TraceRecorder *trace) { _trace = trace; }

    /**
     * Wire the simulated clock used to evaluate firing windows. Specs
     * with a window never fire until a clock is wired (the Machine
     * wires its scheduler at construction).
     */
    void setClock(std::function<std::uint64_t()> clock)
    {
        _clock = std::move(clock);
    }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    struct Point
    {
        FaultSpec spec;
        Rng rng;
        std::uint64_t queries = 0;
        std::uint64_t fires = 0;

        explicit Point(const FaultSpec &s, std::uint64_t stream_seed)
            : spec(s), rng(stream_seed)
        {}
    };

    const Point *findPoint(std::string_view point) const;

    std::uint64_t _seed;
    std::unordered_map<std::string, Point> _points;
    obs::TraceRecorder *_trace = nullptr;
    std::function<std::uint64_t()> _clock;

    stats::Scalar _statQueries;
    stats::Scalar _statFires;
};

} // namespace tmi

#endif // TMI_FAULT_FAULT_INJECTOR_HH
