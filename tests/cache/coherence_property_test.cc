/**
 * @file
 * Property tests: the MESI simulator must uphold its invariants
 * under arbitrary access interleavings.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cache/cache_sim.hh"
#include "common/rng.hh"

namespace tmi
{

namespace
{

AccessContext
randomCtx(Rng &rng, unsigned cores, unsigned lines)
{
    AccessContext c;
    c.core = static_cast<CoreId>(rng.below(cores));
    c.tid = c.core;
    c.paddr = rng.below(lines) * lineBytes + rng.below(8) * 8;
    c.vaddr = c.paddr;
    c.pc = 0x400000;
    c.width = 8;
    c.isWrite = rng.chance(0.4);
    return c;
}

} // namespace

/** Sweep over RNG seeds: the SWMR invariants always hold. */
class CoherenceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CoherenceProperty, SwmrHoldsUnderRandomTraffic)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    CacheConfig cfg;
    cfg.cores = 4;
    cfg.l1Sets = 8; // small caches force constant eviction
    cfg.l1Ways = 2;
    cfg.llcSets = 64;
    cfg.llcWays = 4;
    CacheSim cache(cfg);

    for (int i = 0; i < 20000; ++i) {
        cache.access(randomCtx(rng, cfg.cores, 64));
        if (i % 512 == 0) {
            ASSERT_TRUE(cache.auditCoherence()) << "at access " << i;
        }
    }
    EXPECT_TRUE(cache.auditCoherence());
}

TEST_P(CoherenceProperty, InvalidationsKeepInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
    CacheSim cache;
    for (int i = 0; i < 5000; ++i) {
        cache.access(randomCtx(rng, 4, 32));
        if (rng.chance(0.01))
            cache.invalidateLine(rng.below(32) * lineBytes);
        if (rng.chance(0.002)) {
            cache.invalidatePage(0, smallPageShift);
        }
        if (i % 256 == 0) {
            ASSERT_TRUE(cache.auditCoherence());
        }
    }
}

TEST_P(CoherenceProperty, LatenciesAlwaysSane)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    CacheConfig cfg;
    CacheSim cache(cfg);
    Cycles max_lat =
        std::max({cfg.hitmLatency, cfg.dramLatency,
                  cfg.cleanForwardLatency, cfg.upgradeLatency});
    for (int i = 0; i < 10000; ++i) {
        AccessResult res = cache.access(randomCtx(rng, 4, 128));
        EXPECT_GE(res.latency, cfg.l1HitLatency);
        EXPECT_LE(res.latency, max_lat);
        // HITM is only reported with the HITM latency.
        if (res.hitm) {
            EXPECT_EQ(res.latency, cfg.hitmLatency);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(CoherenceAudit, DetectsNothingOnFreshCache)
{
    CacheSim cache;
    EXPECT_TRUE(cache.auditCoherence());
}

TEST(CoherenceAudit, SingleOwnerAfterWriteStorm)
{
    // After many cores write the same line in turn, exactly the last
    // writer owns it.
    CacheSim cache;
    for (CoreId c = 0; c < 4; ++c) {
        AccessContext ctx;
        ctx.core = c;
        ctx.paddr = 0x40;
        ctx.vaddr = 0x40;
        ctx.pc = 0x400000;
        ctx.width = 8;
        ctx.isWrite = true;
        cache.access(ctx);
        ASSERT_TRUE(cache.auditCoherence());
    }
}

} // namespace tmi
