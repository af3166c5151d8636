/**
 * @file
 * Tests for the MOESI protocol option: Owned-state dirty sharing,
 * its writeback savings, and its consequence for HITM visibility
 * (Intel-style HITM detection goes quiet under dirty sharing).
 */

#include <gtest/gtest.h>

#include "cache/cache_sim.hh"
#include "common/rng.hh"

namespace tmi
{

namespace
{

AccessContext
ctx(CoreId core, Addr paddr, bool write)
{
    AccessContext c;
    c.core = core;
    c.tid = core;
    c.paddr = paddr;
    c.vaddr = paddr;
    c.pc = 0x400000;
    c.width = 8;
    c.isWrite = write;
    return c;
}

CacheConfig
moesiConfig()
{
    CacheConfig cfg;
    cfg.protocol = Protocol::Moesi;
    return cfg;
}

} // namespace

TEST(Moesi, FirstReadOfDirtyLineIsStillHitm)
{
    CacheSim cache(moesiConfig());
    cache.access(ctx(0, 0x1000, true));
    AccessResult r = cache.access(ctx(1, 0x1000, false));
    EXPECT_TRUE(r.hitm);
    EXPECT_EQ(cache.hitmEvents(), 1u);
    EXPECT_TRUE(cache.auditCoherence());
}

TEST(Moesi, SubsequentReadsAreQuietOwnedForwards)
{
    CacheSim cache(moesiConfig());
    cache.access(ctx(0, 0x1000, true));  // M in core 0
    cache.access(ctx(1, 0x1000, false)); // HITM; owner -> O
    AccessResult r = cache.access(ctx(2, 0x1000, false));
    EXPECT_FALSE(r.hitm); // served from Owned: no Intel HITM event
    EXPECT_EQ(r.latency, cache.config().ownedForwardLatency);
    EXPECT_EQ(cache.hitmEvents(), 1u);
    EXPECT_EQ(cache.ownedForwards(), 1u);
    EXPECT_TRUE(cache.auditCoherence());
}

TEST(Moesi, DirtyReadAvoidsWriteback)
{
    CacheSim mesi;
    CacheSim moesi(moesiConfig());
    for (CacheSim *cache : {&mesi, &moesi}) {
        cache->access(ctx(0, 0x1000, true));
        cache->access(ctx(1, 0x1000, false));
    }
    // MESI pays a writeback on the downgrade; MOESI keeps the dirty
    // line in the owner's cache.
    EXPECT_EQ(mesi.writebacks(), 1u);
    EXPECT_EQ(moesi.writebacks(), 0u);
}

TEST(Moesi, WriteToOwnedLineReclaimsModified)
{
    CacheSim cache(moesiConfig());
    cache.access(ctx(0, 0x1000, true));
    cache.access(ctx(1, 0x1000, false)); // core0 -> O, core1 S
    // The owner writes again: O->M upgrade invalidating the sharer.
    AccessResult r = cache.access(ctx(0, 0x1000, true));
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, cache.config().upgradeLatency);
    EXPECT_TRUE(cache.auditCoherence());
    // And the next remote read is a HITM again.
    AccessResult r2 = cache.access(ctx(1, 0x1000, false));
    EXPECT_TRUE(r2.hitm);
}

TEST(Moesi, SharerWriteWritesBackOwnedCopy)
{
    CacheSim cache(moesiConfig());
    cache.access(ctx(0, 0x1000, true));
    cache.access(ctx(1, 0x1000, false)); // core0 O, core1 S
    // The *sharer* upgrades: the dirty O copy must be written back.
    AccessResult r = cache.access(ctx(1, 0x1000, true));
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(cache.writebacks(), 1u);
    EXPECT_TRUE(cache.auditCoherence());
}

TEST(Moesi, WriteMissOnOwnedLineInvalidatesAll)
{
    CacheSim cache(moesiConfig());
    cache.access(ctx(0, 0x1000, true));
    cache.access(ctx(1, 0x1000, false)); // 0:O 1:S
    AccessResult r = cache.access(ctx(2, 0x1000, true));
    EXPECT_FALSE(r.hitm); // dirty, but Owned: quiet on Intel counters
    EXPECT_GE(cache.writebacks(), 1u);
    EXPECT_TRUE(cache.auditCoherence());
    // Core 2 now has the only copy.
    AccessResult r2 = cache.access(ctx(0, 0x1000, false));
    EXPECT_TRUE(r2.hitm);
}

TEST(Moesi, ReadSharingHitmRateCollapsesVsMesi)
{
    // One writer, three readers polling: the detection-relevant
    // difference between the protocols.
    auto run = [](Protocol p) {
        CacheConfig cfg;
        cfg.protocol = p;
        CacheSim cache(cfg);
        for (int round = 0; round < 200; ++round) {
            cache.access(ctx(0, 0x40, true));
            for (CoreId c = 1; c < 4; ++c)
                cache.access(ctx(c, 0x40, false));
        }
        return cache.hitmEvents();
    };
    std::uint64_t mesi = run(Protocol::Mesi);
    std::uint64_t moesi = run(Protocol::Moesi);
    EXPECT_EQ(mesi, moesi); // per round: one M-hit each; the rest of
                            // MESI's reads hit S copies...
    // ...but write-write ping-pong differs: see the property sweep.
}

/** Property: MOESI upholds the extended invariants under chaos. */
class MoesiProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MoesiProperty, InvariantsHoldUnderRandomTraffic)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
    CacheConfig cfg = moesiConfig();
    cfg.l1Sets = 8;
    cfg.l1Ways = 2;
    CacheSim cache(cfg);
    for (int i = 0; i < 20000; ++i) {
        AccessContext c = ctx(static_cast<CoreId>(rng.below(4)),
                              rng.below(64) * lineBytes,
                              rng.chance(0.4));
        cache.access(c);
        if (i % 512 == 0) {
            ASSERT_TRUE(cache.auditCoherence()) << "at access " << i;
        }
    }
    EXPECT_TRUE(cache.auditCoherence());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoesiProperty,
                         ::testing::Values(1, 7, 42, 1337));

} // namespace tmi
