/**
 * @file
 * Unit tests for the MESI cache simulator and HITM generation.
 */

#include <gtest/gtest.h>

#include "cache/cache_sim.hh"

namespace tmi
{

namespace
{

AccessContext
ctx(CoreId core, Addr paddr, bool write, unsigned width = 8)
{
    AccessContext c;
    c.core = core;
    c.tid = core;
    c.paddr = paddr;
    c.vaddr = paddr;
    c.pc = 0x400000;
    c.width = width;
    c.isWrite = write;
    return c;
}

} // namespace

TEST(CacheSim, ColdReadMissesToDram)
{
    CacheSim cache;
    AccessResult r = cache.access(ctx(0, 0x1000, false));
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.hitm);
    EXPECT_EQ(r.latency, cache.config().dramLatency);
}

TEST(CacheSim, SecondAccessHitsL1)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, false));
    AccessResult r = cache.access(ctx(0, 0x1008, false));
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, cache.config().l1HitLatency);
}

TEST(CacheSim, WriteAfterReadUpgradesSilently)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, false)); // E
    AccessResult r = cache.access(ctx(0, 0x1000, true)); // E->M
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, cache.config().l1HitLatency);
}

TEST(CacheSim, RemoteDirtyReadIsHitm)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, true)); // core 0: M
    AccessResult r = cache.access(ctx(1, 0x1000, false));
    EXPECT_TRUE(r.hitm);
    EXPECT_EQ(r.latency, cache.config().hitmLatency);
    EXPECT_EQ(cache.hitmEvents(), 1u);
}

TEST(CacheSim, RemoteDirtyWriteIsHitm)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, true));
    AccessResult r = cache.access(ctx(1, 0x1008, true)); // same line
    EXPECT_TRUE(r.hitm);
    EXPECT_EQ(cache.hitmEvents(), 1u);
}

TEST(CacheSim, DistinctLinesDoNotConflict)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, true));
    AccessResult r = cache.access(ctx(1, 0x1040, true)); // next line
    EXPECT_FALSE(r.hitm);
    EXPECT_EQ(cache.hitmEvents(), 0u);
}

TEST(CacheSim, PingPongGeneratesHitmPerHandoff)
{
    CacheSim cache;
    for (int i = 0; i < 10; ++i) {
        cache.access(ctx(0, 0x1000, true));
        cache.access(ctx(1, 0x1000, true));
    }
    // Every ownership transfer after the first write is a HITM.
    EXPECT_EQ(cache.hitmEvents(), 19u);
}

TEST(CacheSim, CleanSharingIsNotHitm)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, false));
    AccessResult r = cache.access(ctx(1, 0x1000, false));
    EXPECT_FALSE(r.hitm);
    EXPECT_EQ(r.latency, cache.config().cleanForwardLatency);
}

TEST(CacheSim, SharedWriteUpgradesWithInvalidation)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, false));
    cache.access(ctx(1, 0x1000, false)); // both Shared
    AccessResult r = cache.access(ctx(0, 0x1000, true));
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, cache.config().upgradeLatency);
    // Core 1's copy was invalidated: its next read misses and is a
    // HITM against core 0's Modified line.
    AccessResult r2 = cache.access(ctx(1, 0x1000, false));
    EXPECT_TRUE(r2.hitm);
}

TEST(CacheSim, ReadAfterHitmDowngradesOwner)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, true));  // M in core 0
    cache.access(ctx(1, 0x1000, false)); // HITM, both now S
    // Another read from a third core: no further HITM.
    AccessResult r = cache.access(ctx(2, 0x1000, false));
    EXPECT_FALSE(r.hitm);
    EXPECT_EQ(cache.hitmEvents(), 1u);
}

TEST(CacheSim, HitmCallbackChargedIntoLatency)
{
    CacheSim cache;
    cache.setHitmCallback([](const AccessContext &) { return 500; });
    cache.access(ctx(0, 0x1000, true));
    AccessResult r = cache.access(ctx(1, 0x1000, false));
    EXPECT_EQ(r.latency, cache.config().hitmLatency + 500);
}

TEST(CacheSim, EvictionWritesBackAndForgetsLine)
{
    CacheConfig cfg;
    cfg.l1Sets = 1;
    cfg.l1Ways = 2;
    CacheSim cache(cfg);
    // Fill both ways dirty, then evict one with a third line.
    cache.access(ctx(0, 0 * 64, true));
    cache.access(ctx(0, 1 * 64, true));
    cache.access(ctx(0, 2 * 64, true)); // evicts line 0 (LRU)
    // Line 0 is gone from core 0: another core's write misses to
    // LLC, not HITM.
    AccessResult r = cache.access(ctx(1, 0 * 64, true));
    EXPECT_FALSE(r.hitm);
    EXPECT_EQ(r.latency, cache.config().llcHitLatency);
}

TEST(CacheSim, InvalidatePageClearsAllCores)
{
    CacheSim cache;
    cache.access(ctx(0, 0x1000, true));
    cache.access(ctx(1, 0x2000, true));
    cache.invalidatePage(0x1000 >> smallPageShift, smallPageShift);
    // 0x1000's line (page 1) dropped everywhere; 0x2000 (page 2)
    // untouched.
    AccessResult r = cache.access(ctx(2, 0x1000, true));
    EXPECT_FALSE(r.hitm);
    AccessResult r2 = cache.access(ctx(2, 0x2000, true));
    EXPECT_TRUE(r2.hitm);
}

TEST(CacheConfigValidate, NamesEachBadGeometryField)
{
    CacheConfig cfg;
    cfg.l1Sets = 48;   // not a power of two
    cfg.llcSets = 0;
    cfg.l1Ways = 0;
    cfg.llcWays = 0;
    std::vector<ConfigError> errors;
    validateConfig(cfg, errors, "cache");
    ASSERT_EQ(errors.size(), 4u);
    EXPECT_EQ(errors[0].field, "cache.l1Sets");
    EXPECT_EQ(errors[1].field, "cache.llcSets");
    EXPECT_EQ(errors[2].field, "cache.l1Ways");
    EXPECT_EQ(errors[3].field, "cache.llcWays");
}

TEST(CacheConfigValidate, ConstructorRejectsBadGeometry)
{
    CacheConfig cfg;
    cfg.llcSets = 6000;
    EXPECT_EXIT(CacheSim{cfg}, ::testing::ExitedWithCode(1),
                "llcSets");
}

TEST(CacheSim, LineSpanAccessAsserts)
{
    CacheSim cache;
    EXPECT_DEATH(cache.access(ctx(0, 0x103c, false, 8)),
                 "assertion");
}

/** Parameterized sweep: ping-pong HITM counts scale with rounds. */
class PingPongSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PingPongSweep, HitmScalesLinearly)
{
    int rounds = GetParam();
    CacheSim cache;
    for (int i = 0; i < rounds; ++i) {
        cache.access(ctx(0, 0x40, true));
        cache.access(ctx(1, 0x40, true));
    }
    EXPECT_EQ(cache.hitmEvents(),
              static_cast<std::uint64_t>(2 * rounds - 1));
}

INSTANTIATE_TEST_SUITE_P(Rounds, PingPongSweep,
                         ::testing::Values(1, 2, 5, 20, 100));

} // namespace tmi
