/**
 * @file
 * Unit tests for the AccessPipeline invalidation-epoch contract:
 * every mapping mutation site (protect, un-protect, COW abandonment,
 * clone, mapShared, private-frame drop, PTSB commit) and hook-state
 * change (hook install, TLB flush; the ladder rungs are exercised by
 * the robustness suite) must bump the global epoch, and an entry
 * installed under an older epoch must never be served. A serviced
 * COW fault needs no bump: the page was not cacheable before it, and
 * its private frame is cacheable until a site above retires it.
 */

#include <gtest/gtest.h>

#include "core/access_path.hh"
#include "core/machine.hh"
#include "mem/mmu.hh"
#include "ptsb/ptsb.hh"

namespace tmi
{

namespace
{

/** An Mmu wired to a pipeline's epoch, with one shared mapping. */
struct EpochFixture : public ::testing::Test
{
    EpochFixture()
        : mmu(smallPageShift), pipe(1), region("shm", mmu.phys())
    {
        mmu.setEpoch(&pipe.epoch());
        pid = mmu.createAddressSpace();
        region.grow(4);
        mmu.mapShared(pid, vbase, region, 0, 4);
    }

    std::uint64_t epoch() const { return pipe.epoch().value(); }

    /** Touch the page and install its translation in the cache. */
    void
    cacheTranslation()
    {
        TranslateResult tr = mmu.translate(pid, vbase, true);
        EXPECT_TRUE(tr.cacheable);
        pipe.frameInsert(0, pid, vp(),
                         tr.paddr & ~Addr{smallPageBytes - 1});
    }

    /** Protect the page, take its COW fault and cache the private
     *  frame's translation; returns that frame's base address. */
    Addr
    cachePrivateTranslation()
    {
        if (!mmu.isProtected(pid, vp()))
            mmu.protectPrivateCow(pid, vp());
        TranslateResult tr = mmu.translate(pid, vbase, true);
        EXPECT_TRUE(tr.cacheable);
        EXPECT_NE(tr.paddr, sharedBase());
        pipe.frameInsert(0, pid, vp(), tr.paddr);
        EXPECT_TRUE(cachedHit());
        return tr.paddr;
    }

    Addr sharedBase() const { return region.frameFor(0) << smallPageShift; }

    bool
    cachedHit()
    {
        Addr base = 0;
        return pipe.frameLookup(0, pid, vp(), base);
    }

    VPage vp() const { return vbase >> smallPageShift; }

    static constexpr Addr vbase = 0x10000000;
    Mmu mmu;
    AccessPipeline pipe;
    ShmRegion region;
    ProcessId pid;
};

} // namespace

TEST_F(EpochFixture, FreshPipelineServesNothing)
{
    // The epoch starts at 1 precisely so zero-initialized entry tags
    // can never match.
    EXPECT_GE(epoch(), 1u);
    EXPECT_FALSE(cachedHit());
}

TEST_F(EpochFixture, EntryHitsUntilEpochBump)
{
    cacheTranslation();
    EXPECT_TRUE(cachedHit());
    pipe.epoch().bump();
    EXPECT_FALSE(cachedHit());
    // Re-inserting under the new epoch revives the slot.
    cacheTranslation();
    EXPECT_TRUE(cachedHit());
}

TEST_F(EpochFixture, EntryIsPidAndPageTagged)
{
    cacheTranslation();
    Addr base = 0;
    ProcessId other = mmu.createAddressSpace();
    EXPECT_FALSE(pipe.frameLookup(0, other, vp(), base));
    EXPECT_FALSE(pipe.frameLookup(0, pid, vp() + 1, base));
}

TEST_F(EpochFixture, ProtectBumpsAndKillsEntry)
{
    cacheTranslation();
    std::uint64_t e0 = epoch();
    mmu.protectPrivateCow(pid, vp());
    EXPECT_GT(epoch(), e0);
    EXPECT_FALSE(cachedHit());
    // A protected page is no longer cacheable: reads stay shared but
    // translate is impure (a write would COW-fault).
    TranslateResult tr = mmu.translate(pid, vbase, false);
    EXPECT_FALSE(tr.cacheable);
}

TEST_F(EpochFixture, CowServiceIsCacheable)
{
    mmu.protectPrivateCow(pid, vp());
    TranslateResult tr = mmu.translate(pid, vbase, true);
    ASSERT_TRUE(tr.cowFault);
    // The page now holds its private frame: later reads and writes
    // translate to it with no fault, stat or cost, so it may enter
    // the cache like a SharedRW page.
    EXPECT_TRUE(tr.cacheable);
    std::uint64_t e0 = epoch();
    std::uint64_t cows = mmu.cowFaults();
    for (bool is_write : {false, true}) {
        TranslateResult again = mmu.translate(pid, vbase + 8, is_write);
        EXPECT_TRUE(again.cacheable);
        EXPECT_FALSE(again.cowFault);
        EXPECT_FALSE(again.softFault);
        EXPECT_EQ(again.extraCost, 0u);
        EXPECT_EQ(again.paddr, tr.paddr + 8);
    }
    EXPECT_EQ(mmu.cowFaults(), cows);
    EXPECT_EQ(epoch(), e0);
}

TEST_F(EpochFixture, PrivateFrameEntryDiesAtDrop)
{
    cachePrivateTranslation();
    mmu.dropPrivateFrame(pid, vp());
    EXPECT_FALSE(cachedHit());
    // Frameless again: a read maps the shared frame, but the next
    // write must fault, so nothing is cacheable until it does.
    TranslateResult tr = mmu.translate(pid, vbase, false);
    EXPECT_FALSE(tr.cacheable);
    EXPECT_EQ(tr.paddr, sharedBase());
}

TEST_F(EpochFixture, PrivateFrameEntryDiesAtUnprotect)
{
    cachePrivateTranslation();
    mmu.unprotect(pid, vp());
    EXPECT_FALSE(cachedHit());
    TranslateResult tr = mmu.translate(pid, vbase, true);
    EXPECT_TRUE(tr.cacheable);
    EXPECT_EQ(tr.paddr, sharedBase());
}

TEST_F(EpochFixture, PrivateFrameEntryDiesAtAbandon)
{
    cachePrivateTranslation();
    // A COW fault on the next page that its handler refuses reverts
    // that page to SharedRW; the abandonment bumps the epoch.
    mmu.setCowCallback([](ProcessId, VPage, PPage, PPage) {
        return CowOutcome{0, false};
    });
    mmu.protectPrivateCow(pid, vp() + 1);
    cachePrivateTranslation(); // re-cache after the protect's bump
    TranslateResult tr =
        mmu.translate(pid, vbase + smallPageBytes, true);
    ASSERT_TRUE(tr.cowAborted);
    EXPECT_FALSE(cachedHit());
}

TEST_F(EpochFixture, PrivateFrameEntryDiesAtClone)
{
    Addr priv = cachePrivateTranslation();
    ProcessId child = mmu.cloneAddressSpace(pid);
    EXPECT_FALSE(cachedHit());
    // The child got its own copy; the parent keeps its frame.
    TranslateResult mine = mmu.translate(pid, vbase, true);
    TranslateResult theirs = mmu.translate(child, vbase, true);
    EXPECT_EQ(mine.paddr, priv);
    EXPECT_NE(theirs.paddr, priv);
    EXPECT_NE(theirs.paddr, sharedBase());
    EXPECT_TRUE(theirs.cacheable);
}

TEST_F(EpochFixture, UnprotectBumps)
{
    mmu.protectPrivateCow(pid, vp());
    std::uint64_t e0 = epoch();
    mmu.unprotect(pid, vp());
    EXPECT_GT(epoch(), e0);
}

TEST_F(EpochFixture, DropPrivateFrameBumps)
{
    mmu.protectPrivateCow(pid, vp());
    TranslateResult tr = mmu.translate(pid, vbase, true);
    ASSERT_TRUE(tr.cowFault); // private frame now live
    std::uint64_t e0 = epoch();
    mmu.dropPrivateFrame(pid, vp());
    EXPECT_GT(epoch(), e0);
}

TEST_F(EpochFixture, CloneBumps)
{
    std::uint64_t e0 = epoch();
    ProcessId child = mmu.cloneAddressSpace(pid);
    EXPECT_GT(epoch(), e0);
    EXPECT_NE(child, pid);
}

TEST_F(EpochFixture, MapSharedBumps)
{
    std::uint64_t e0 = epoch();
    mmu.mapShared(pid, vbase + 4 * smallPageBytes, region, 0, 4);
    EXPECT_GT(epoch(), e0);
}

TEST(AccessPipelinePtsb, CommitBumpsEpoch)
{
    // A PTSB commit republishes buffered writes through the shared
    // frame (dropping the private twin): any cached translation for
    // the page must die with it.
    Mmu mmu(smallPageShift);
    AccessPipeline pipe(1);
    mmu.setEpoch(&pipe.epoch());
    ShmRegion region("shm", mmu.phys());
    region.grow(2);
    ProcessId p0 = mmu.createAddressSpace();
    constexpr Addr vbase = 0x10000000;
    mmu.mapShared(p0, vbase, region, 0, 2);
    Ptsb ptsb(mmu, p0);
    mmu.setCowCallback([&](ProcessId, VPage vpage, PPage shared,
                           PPage priv) -> CowOutcome {
        return ptsb.onCowFault(vpage, shared, priv);
    });

    ptsb.protectPage(vbase >> smallPageShift);
    std::uint64_t v = 0xabcdef;
    mmu.write(p0, vbase + 16, &v, 8);
    ASSERT_EQ(ptsb.dirtyPages(), 1u);

    std::uint64_t e0 = pipe.epoch().value();
    CommitResult res = ptsb.commit();
    EXPECT_GT(res.bytesChanged, 0u);
    EXPECT_GT(pipe.epoch().value(), e0);
}

TEST(AccessPipelineSnapshot, HookSnapshotGoesStaleOnBump)
{
    AccessPipeline pipe(1);
    EXPECT_TRUE(pipe.stale()); // never validated
    pipe.revalidate(true, false);
    EXPECT_FALSE(pipe.stale());
    EXPECT_TRUE(pipe.interceptArmed());
    EXPECT_FALSE(pipe.atomicsBypass());
    pipe.epoch().bump();
    EXPECT_TRUE(pipe.stale());
    pipe.revalidate(false, true);
    EXPECT_FALSE(pipe.stale());
    EXPECT_FALSE(pipe.interceptArmed());
    EXPECT_TRUE(pipe.atomicsBypass());
}

TEST(AccessPipelineSnapshot, BypassFlagsArePerThread)
{
    AccessPipeline pipe(1);
    EXPECT_FALSE(pipe.bypassPrivate(0)); // unknown tid: no bypass
    pipe.setBypassPrivate(2, true);
    EXPECT_FALSE(pipe.bypassPrivate(0));
    EXPECT_FALSE(pipe.bypassPrivate(1));
    EXPECT_TRUE(pipe.bypassPrivate(2));
    pipe.setBypassPrivate(2, false);
    EXPECT_FALSE(pipe.bypassPrivate(2));
}

TEST(AccessPipelineMachine, HookInstallAndTlbFlushBump)
{
    MachineConfig mc;
    Machine m(mc);
    std::uint64_t e0 = m.accessEpoch().value();
    m.setHooks(nullptr);
    std::uint64_t e1 = m.accessEpoch().value();
    EXPECT_GT(e1, e0);
    m.flushTlbs();
    EXPECT_GT(m.accessEpoch().value(), e1);
}

} // namespace tmi
