/**
 * @file
 * RefCacheSim: a slow, textbook MESI/MOESI model with CacheSim's
 * surface, kept only as a test oracle.
 *
 * Every cache is a map from set index to the lines it holds, each
 * line carrying its way slot, state and LRU stamp; only valid lines
 * exist. There is no snoop shortcut (every other core is asked), no
 * reliance on SWMR to stop early, no assumption that LLC ways fill in
 * order, and no host-layout trick. The rules it states are the ones
 * CacheSim must implement:
 *
 *  - a fill takes the lowest free way, else evicts the least recently
 *    used line, the lowest way on a stamp tie;
 *  - every access bumps one use clock; hits and fills stamp with it;
 *  - evicting a Modified or Owned line writes it back, and a
 *    writeback is an LLC lookup-or-fill like any other;
 *  - the LLC is non-inclusive and never invalidated.
 *
 * Run it in lockstep with CacheSim and compare every AccessResult and
 * every counter (tests/ref/ref_cache_sim_test.cc).
 */

#ifndef TMI_TESTS_REF_REF_CACHE_SIM_HH
#define TMI_TESTS_REF_REF_CACHE_SIM_HH

#include <map>
#include <vector>

#include "cache/cache_sim.hh"

namespace tmi
{

/** The reference cache hierarchy (see file comment). */
class RefCacheSim
{
  public:
    explicit RefCacheSim(const CacheConfig &config);

    void setHitmCallback(HitmCallback cb) { _hitmCb = std::move(cb); }

    AccessResult access(const AccessContext &ctx);
    void invalidateLine(Addr paddr);
    void invalidatePage(PPage frame, unsigned page_shift);

    /** Same names and meanings as CacheSim::regStats. */
    void regStats(stats::StatGroup &group);

  private:
    struct Way
    {
        unsigned way = 0;
        Mesi state = Mesi::Invalid;
        std::uint64_t stamp = 0;
    };

    /** One set-associative cache: set index -> line -> its way. */
    struct Cache
    {
        unsigned sets = 0;
        unsigned ways = 0;
        std::map<Addr, std::map<Addr, Way>> lines;

        std::map<Addr, Way> &set(Addr line) { return lines[line % sets]; }
        Way *find(Addr line);
        /** Install @p line, evicting through @p evict when full. */
        template <typename Evict>
        Way &fill(Addr line, Mesi state, std::uint64_t stamp,
                  Evict &&evict);
    };

    /** Drop core @p c's copy of @p line, writing it back if dirty. */
    void evict(CoreId c, Addr line);
    /** LLC lookup; fill on miss. True on a hit. */
    bool llcLookupFill(Addr line);

    CacheConfig _config;
    std::vector<Cache> _l1;
    Cache _llc;
    HitmCallback _hitmCb;
    std::uint64_t _clock = 0;

    stats::Scalar _accesses, _l1Hits, _llcHits, _dramFills, _hitm,
        _hitmStores, _ownedForwards, _upgrades, _invalidations,
        _writebacks;
};

} // namespace tmi

#endif // TMI_TESTS_REF_REF_CACHE_SIM_HH
