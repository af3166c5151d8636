/**
 * @file
 * The seeded CacheSim access streams that the digest pin
 * (cache_sim_digest_test.cc) and the RefCacheSim lockstep test
 * (ref/ref_cache_sim_test.cc) both replay.
 *
 * Hot lines shared by every core, plus a cold range large enough to
 * push lines out of the default L1s and LLC; optionally interleaved
 * line and page invalidations. The small geometry evicts on almost
 * every miss.
 */

#ifndef TMI_TESTS_CACHE_SEEDED_STREAM_HH
#define TMI_TESTS_CACHE_SEEDED_STREAM_HH

#include "cache/cache_sim.hh"
#include "common/rng.hh"

namespace tmi
{

struct SeededStream
{
    Protocol protocol;
    bool small;      //!< tiny caches that evict constantly
    bool invalidate; //!< interleave invalidateLine/invalidatePage
};

inline CacheConfig
seededStreamConfig(const SeededStream &s)
{
    CacheConfig cfg;
    cfg.protocol = s.protocol;
    if (s.small) {
        cfg.cores = 4;
        cfg.l1Sets = 8;
        cfg.l1Ways = 2;
        cfg.llcSets = 64;
        cfg.llcWays = 4;
    } else {
        cfg.cores = 8;
    }
    return cfg;
}

/**
 * Replay @p s into @p sim (anything with CacheSim's access and
 * invalidate calls), handing each AccessResult to @p on_result.
 */
template <typename Sim, typename OnResult>
void
playSeededStream(const SeededStream &s, Sim &sim, OnResult &&on_result)
{
    const unsigned cores = seededStreamConfig(s).cores;
    const std::uint64_t hot_lines = s.small ? 96 : 256;
    const std::uint64_t cold_lines = s.small ? 1024 : 1u << 18;
    const int accesses = s.small ? 60000 : 400000;

    Rng rng(s.small ? 0x5eedULL : 0xdefaULL);
    for (int i = 0; i < accesses; ++i) {
        AccessContext c;
        c.core = static_cast<CoreId>(rng.below(cores));
        c.tid = c.core;
        std::uint64_t line = rng.chance(0.7)
                                 ? rng.below(hot_lines)
                                 : hot_lines + rng.below(cold_lines);
        c.paddr = line * lineBytes + rng.below(8) * 8;
        c.vaddr = c.paddr;
        c.pc = 0x400000;
        c.width = 8;
        c.isWrite = rng.chance(0.35);
        on_result(sim.access(c));

        if (s.invalidate) {
            if (rng.chance(0.01))
                sim.invalidateLine(rng.below(hot_lines) * lineBytes);
            if (rng.chance(0.001)) {
                sim.invalidatePage(rng.below(hot_lines / 64 + 1),
                                   smallPageShift);
            }
        }
    }
}

} // namespace tmi

#endif // TMI_TESTS_CACHE_SEEDED_STREAM_HH
