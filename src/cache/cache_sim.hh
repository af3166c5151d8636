/**
 * @file
 * MESI cache-coherence simulator with HITM event generation.
 *
 * The simulated machine has one private L1 per core, a shared LLC,
 * and a snooping interconnect enforcing the single-writer multiple-
 * reader invariant. Coherence state lives only in the private tag
 * arrays: an L1 miss snoops the same set in every other core's array;
 * there is no directory. A HITM ("HIT Modified") event fires when a
 * core's request hits a remote private cache holding the line in
 * Modified state -- exactly the coherence condition Intel's PEBS
 * MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM event reports, which Tmi's
 * detector consumes (paper section 2.1).
 *
 * Caches are keyed by *physical* address. Tmi's repair remaps a
 * contended virtual page to per-process private frames, so repaired
 * accesses stop colliding in the coherence protocol for the same
 * reason they do on real hardware.
 */

#ifndef TMI_CACHE_CACHE_SIM_HH
#define TMI_CACHE_CACHE_SIM_HH

#include <functional>
#include <string>
#include <vector>

#include "common/config_error.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmi
{

/** Coherence protocol flavour. */
enum class Protocol : std::uint8_t
{
    Mesi,  //!< Intel-style: a read of a remote-M line writes back
    Moesi, //!< AMD-style: the writer keeps dirty data in Owned state
};

/** MESI/MOESI line states. */
enum class Mesi : std::uint8_t
{
    Invalid,
    Shared,
    Owned,     //!< dirty but shared (MOESI only)
    Exclusive,
    Modified,
};

/** Most private caches a CacheSim models: a snoop names the cores
 *  holding a line in a 32-bit mask. */
constexpr unsigned maxCacheCores = 32;

/** Geometry and latency parameters of the memory hierarchy. Set
 *  counts are powers of two; see validateConfig(). */
struct CacheConfig
{
    Protocol protocol = Protocol::Mesi;
    unsigned cores = 4;            //!< private caches, 1..maxCacheCores
    unsigned l1Sets = 64;          //!< 64 sets x 8 ways x 64 B = 32 KB
    unsigned l1Ways = 8;
    unsigned llcSets = 8192;       //!< 8192 x 16 x 64 B = 8 MB
    unsigned llcWays = 16;

    Cycles l1HitLatency = 4;       //!< private-cache hit
    Cycles llcHitLatency = 38;     //!< shared-cache hit
    Cycles hitmLatency = 180;      //!< dirty cache-to-cache transfer
    Cycles ownedForwardLatency = 95; //!< O-state dirty forward (MOESI)
    Cycles cleanForwardLatency = 70; //!< clean remote hit (E/S)
    Cycles dramLatency = 230;      //!< LLC miss to memory
    Cycles upgradeLatency = 55;    //!< S->M invalidation round

    bool operator==(const CacheConfig &) const = default;
};

/** Collect CacheConfig geometry violations under @p prefix: set
 *  counts must be non-zero powers of two and way counts >= 1. The
 *  core count is the owner's to check (MachineConfig::cores). */
void validateConfig(const CacheConfig &config,
                    std::vector<ConfigError> &errors,
                    const std::string &prefix = "CacheConfig");

/** Everything the memory system needs to know about one access. */
struct AccessContext
{
    CoreId core = 0;       //!< issuing core
    ThreadId tid = 0;      //!< issuing simulated thread
    Addr paddr = 0;        //!< physical address
    Addr vaddr = 0;        //!< virtual address (for PEBS records)
    Addr pc = 0;           //!< program counter of the instruction
    unsigned width = 0;    //!< access size in bytes
    bool isWrite = false;
};

/** Result of one access through the hierarchy. */
struct AccessResult
{
    Cycles latency = 0;
    bool l1Hit = false;
    bool hitm = false;      //!< remote-Modified hit occurred
};

/**
 * Raised on every HITM coherence event (before PEBS sampling).
 *
 * @param ctx the access that triggered the event.
 * @return extra cycles to charge the access (e.g. the PEBS assist
 *         cost when the observer emits a record).
 */
using HitmCallback = std::function<Cycles(const AccessContext &ctx)>;

/** The simulated cache hierarchy. */
class CacheSim
{
  public:
    explicit CacheSim(const CacheConfig &config = {});

    const CacheConfig &config() const { return _config; }

    /** Install the HITM observer (the PEBS model). */
    void setHitmCallback(HitmCallback cb) { _hitmCb = std::move(cb); }

    /**
     * Simulate one data access; updates coherence state and returns
     * the latency to charge. The access must not span a cache line.
     */
    AccessResult access(const AccessContext &ctx);

    /**
     * Invalidate a line from every private cache (used when a page
     * mapping changes so stale translations cannot linger).
     */
    void invalidateLine(Addr paddr);

    /** Invalidate every line in a physical page from all caches. */
    void invalidatePage(PPage frame, unsigned page_shift);

    /** Total true HITM events (before sampling). */
    std::uint64_t hitmEvents() const
    {
        return static_cast<std::uint64_t>(_statHitm.value());
    }

    /** Dirty forwards served from Owned lines (MOESI only): remote
     *  dirty hits that do NOT raise the Intel HITM event. */
    std::uint64_t ownedForwards() const
    {
        return static_cast<std::uint64_t>(_statOwnedForwards.value());
    }

    /** Dirty lines written back to the LLC. */
    std::uint64_t writebacks() const
    {
        return static_cast<std::uint64_t>(_statWritebacks.value());
    }

    /** Total accesses simulated. */
    std::uint64_t accesses() const
    {
        return static_cast<std::uint64_t>(_statAccesses.value());
    }

    /**
     * Audit the single-writer multiple-reader invariant: no line may
     * be valid in any private cache while another private cache
     * holds it Modified or Exclusive, at most one cache holds it
     * Owned, and Owned appears only under MOESI. Intended for
     * property tests.
     *
     * @retval true if every invariant holds.
     */
    bool auditCoherence() const;

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    struct Line
    {
        Addr tag = 0;           //!< line address (paddr >> lineShift)
        Mesi state = Mesi::Invalid;
        std::uint64_t lastUse = 0;
    };

    /** One private set-associative tag array; the set count is a
     *  power of two, so a line's set is its low address bits. */
    struct TagArray
    {
        Addr setMask = 0;
        unsigned ways = 0;
        std::vector<Line> lines;

        void init(unsigned sets, unsigned w);
        Line *
        set(Addr line_addr)
        {
            return &lines[(line_addr & setMask) * ways];
        }
        Line *find(Addr line_addr);
        /** Victim way for a fill (invalid first, else LRU). */
        Line &victim(Addr line_addr);
    };

    /** What the other private caches hold of one line. */
    struct Snoop
    {
        std::uint32_t others = 0; //!< bitmask of cores with a copy
        Line *owner = nullptr;    //!< the M, E or O copy (at most one)
    };

    /** Probe every other core's L1 for @p line_addr. */
    Snoop snoop(CoreId requester, Addr line_addr);
    /** Invalidate one private copy, writing it back if dirty. */
    void evict(Line &line);
    /** Evict @p line_addr from each core in @p others, counting one
     *  invalidation per copy. */
    void invalidateOthers(std::uint32_t others, Addr line_addr);
    void fillLine(CoreId core, Addr line_addr, Mesi state);
    bool llcLookupFill(Addr line_addr);

    /** LLC set @p line_addr maps to: its tag row, then its stamp row
     *  (see _llcRows). */
    std::uint64_t *
    llcRow(Addr line_addr)
    {
        return &_llcRows[_llcBase + (line_addr & _llcSetMask) * 2 *
                                        _config.llcWays];
    }

    /** Host cache line, the unit the LLC rows are aligned to. */
    static constexpr std::size_t hostLineBytes = 64;
    static constexpr unsigned hostLineWords =
        hostLineBytes / sizeof(std::uint64_t);

    /** Tag of an LLC way that was never filled. */
    static constexpr std::uint64_t llcEmpty = ~std::uint64_t{0};

    CacheConfig _config;
    std::vector<TagArray> _l1;
    /**
     * The LLC as two flat rows per set, starting at _llcBase (the
     * first host-line boundary in the buffer): llcWays line tags
     * (llcEmpty for a way never filled), then llcWays LRU stamps. LLC
     * lines are only ever Shared or Invalid, so the tag alone is the
     * state, and a lookup reads one tag row (two host cache lines at
     * 16 ways) instead of an array of full Lines.
     */
    std::vector<std::uint64_t> _llcRows;
    std::size_t _llcBase = 0;
    Addr _llcSetMask = 0;
    HitmCallback _hitmCb;
    std::uint64_t _useClock = 0;

    stats::Scalar _statAccesses;
    stats::Scalar _statL1Hits;
    stats::Scalar _statLlcHits;
    stats::Scalar _statDramFills;
    stats::Scalar _statHitm;
    stats::Scalar _statHitmStores;
    stats::Scalar _statOwnedForwards;
    stats::Scalar _statUpgrades;
    stats::Scalar _statInvalidations;
    stats::Scalar _statWritebacks;
};

} // namespace tmi

#endif // TMI_CACHE_CACHE_SIM_HH
