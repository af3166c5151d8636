/**
 * @file
 * Ptsb's word-at-a-time page diff against RefPtsb's byte loop, in
 * lockstep: each case hands both the same private page, twin and
 * shared page (each side merges into its own copy of the shared
 * page) and compares every CommitResult field, the merged shared
 * bytes and the sequence of merged lines. Cases cover a change at
 * each byte position of a word, words where only the shared page
 * moved, conflicts, a fully changed page, a clean page, a 2 MB huge
 * page and seeded random twins; one case drives Ptsb::commit itself.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ref/ref_ptsb.hh"

namespace tmi
{

namespace
{

using Bytes = std::vector<std::uint8_t>;

/** One page as commit sees it: private copy, twin, shared page. */
struct PageCase
{
    Bytes priv;
    Bytes snap;
    Bytes shared;
    PPage sharedFrame = 5;
};

/** A case whose three pages all equal one seeded random page. */
PageCase
seededCase(std::uint64_t seed, Addr page_bytes = smallPageBytes)
{
    std::mt19937_64 rng(seed);
    PageCase c;
    c.snap.resize(page_bytes);
    for (auto &b : c.snap)
        b = static_cast<std::uint8_t>(rng());
    c.priv = c.snap;
    c.shared = c.snap;
    return c;
}

struct Outcome
{
    CommitResult res;
    Bytes shared;
    std::vector<Addr> lines;
};

/** Run both diffs on @p c; compare everything; return Ptsb's side. */
Outcome
lockstep(const PageCase &c, const PtsbCosts &costs = {})
{
    Outcome got, want;
    got.shared = c.shared;
    want.shared = c.shared;
    Ptsb::mergePage(c.priv.data(), c.snap.data(), got.shared.data(),
                    c.priv.size(), c.sharedFrame, costs, got.res,
                    got.lines);
    RefPtsb::mergePage(c.priv.data(), c.snap.data(), want.shared.data(),
                       c.priv.size(), c.sharedFrame, costs, want.res,
                       want.lines);
    EXPECT_EQ(got.res.cost, want.res.cost);
    EXPECT_EQ(got.res.bytesChanged, want.res.bytesChanged);
    EXPECT_EQ(got.res.conflictBytes, want.res.conflictBytes);
    EXPECT_EQ(got.res.linesMerged, want.res.linesMerged);
    EXPECT_EQ(got.lines, want.lines);
    EXPECT_TRUE(got.shared == want.shared) << "merged bytes differ";
    return got;
}

/** Line address of byte @p off of @p c's shared page. */
Addr
lineOf(const PageCase &c, Addr off)
{
    return lineAlign(c.sharedFrame * c.priv.size() + off);
}

} // namespace

TEST(RefPtsbLockstep, ChangeAtEachBytePositionOfAWord)
{
    // Words at the start, end and middle of lines and of the page.
    const Addr words[] = {0, 7, 8, 255, 511};
    for (unsigned k = 0; k < 8; ++k) {
        PageCase c = seededCase(100 + k);
        for (Addr w : words)
            c.priv[w * 8 + k] ^= 0x5a;
        Outcome o = lockstep(c);
        EXPECT_EQ(o.res.bytesChanged, std::size(words)) << "byte " << k;
        EXPECT_EQ(o.res.conflictBytes, 0u);
        // Words 0 and 7 share line 0; words 7 and 8 straddle a line.
        EXPECT_EQ(o.res.linesMerged, std::size(words) - 1);
        EXPECT_EQ(o.lines.front(), lineOf(c, k));
    }
}

TEST(RefPtsbLockstep, SharedMovedWherePrivMatchesTwin)
{
    // Another process merged into words this one never wrote: those
    // bytes must survive untouched, and they are not conflicts.
    PageCase c = seededCase(7);
    for (Addr off = 24; off < 32; ++off)
        c.shared[off] ^= 0xff; // word 3: shared only
    c.shared[100] ^= 1;        // one byte of word 12: shared only
    c.priv[101] ^= 1;          // its neighbour: private only
    Outcome o = lockstep(c);
    EXPECT_EQ(o.res.bytesChanged, 1u);
    EXPECT_EQ(o.res.conflictBytes, 0u);
    for (Addr off = 24; off < 32; ++off)
        EXPECT_EQ(o.shared[off], c.shared[off]);
    EXPECT_EQ(o.shared[100], c.shared[100]);
    EXPECT_EQ(o.shared[101], c.priv[101]);
}

TEST(RefPtsbLockstep, ConflictingBytes)
{
    PageCase c = seededCase(11);
    for (Addr off : {Addr{3}, Addr{64}, Addr{65}, Addr{4095}}) {
        c.priv[off] ^= 0x0f;
        c.shared[off] ^= 0xf0; // both moved: a racy merge
    }
    c.priv[200] ^= 2;
    c.shared[201] ^= 2;
    Outcome o = lockstep(c);
    EXPECT_EQ(o.res.bytesChanged, 5u);
    EXPECT_EQ(o.res.conflictBytes, 4u);
}

TEST(RefPtsbLockstep, FullyChangedPage)
{
    PageCase c = seededCase(13);
    for (auto &b : c.priv)
        b = static_cast<std::uint8_t>(~b);
    Outcome o = lockstep(c);
    EXPECT_EQ(o.res.bytesChanged, smallPageBytes);
    EXPECT_EQ(o.res.linesMerged, smallPageBytes / lineBytes);
    EXPECT_TRUE(o.shared == c.priv);
}

TEST(RefPtsbLockstep, CleanPage)
{
    PageCase c = seededCase(17);
    c.shared[9] ^= 1; // shared moved, priv did not: nothing to merge
    PtsbCosts costs;
    Outcome o = lockstep(c, costs);
    EXPECT_EQ(o.res.bytesChanged, 0u);
    EXPECT_EQ(o.res.linesMerged, 0u);
    EXPECT_EQ(o.res.cost, costs.diffPer4k);
    EXPECT_TRUE(o.lines.empty());
}

TEST(RefPtsbLockstep, HugePage)
{
    PageCase c = seededCase(19, hugePageBytes);
    c.sharedFrame = 3;
    // Dirty bytes at both ends of a chunk, across a chunk boundary,
    // at the last byte of the page, and one conflict; every other
    // chunk is clean and must be skipped by the memcmp pre-filter.
    for (Addr off : {Addr{0}, Addr{4095}, Addr{4096}, Addr{12345},
                     Addr{hugePageBytes - 1}}) {
        c.priv[off] ^= 0x80;
    }
    c.shared[12345] ^= 0x01;
    PtsbCosts costs;
    Outcome o = lockstep(c, costs);
    EXPECT_EQ(o.res.bytesChanged, 5u);
    EXPECT_EQ(o.res.conflictBytes, 1u);
    const Cycles chunks = hugePageBytes / smallPageBytes;
    EXPECT_EQ(o.res.cost, chunks * costs.memcmpPer4k +
                              4 * costs.diffPer4k +
                              5 * costs.mergePerLine);
}

TEST(RefPtsbLockstep, SeededTwins)
{
    // Sparse to dense private changes, with random shared-side moves
    // (some on the same bytes: conflicts), on distinct frames.
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        PageCase c = seededCase(1000 + seed);
        c.sharedFrame = seed;
        std::mt19937_64 rng(seed);
        const unsigned writes = 1u << (seed % 12);
        for (unsigned i = 0; i < writes; ++i)
            c.priv[rng() % smallPageBytes] ^=
                static_cast<std::uint8_t>(1 + rng() % 255);
        for (unsigned i = 0; i < seed % 9; ++i)
            c.shared[rng() % smallPageBytes] ^= 0x10;
        SCOPED_TRACE(seed);
        lockstep(c);
    }
}

TEST(RefPtsbLockstep, CommitMatchesReferenceOnEachPage)
{
    // Ptsb::commit over several twinned pages, one with a racy
    // shared-side write, against RefPtsb run on copies of the same
    // pages taken just before the commit.
    Mmu mmu(smallPageShift);
    ShmRegion region("shm", mmu.phys());
    constexpr unsigned pages = 3;
    region.grow(pages);
    ProcessId p0 = mmu.createAddressSpace();
    ProcessId p1 = mmu.createAddressSpace();
    constexpr Addr vbase = 0x10000000;
    mmu.mapShared(p0, vbase, region, 0, pages);
    mmu.mapShared(p1, vbase, region, 0, pages);
    PtsbCosts costs;
    Ptsb ptsb(mmu, p0, costs);
    mmu.setCowCallback([&](ProcessId, VPage vpage, PPage shared,
                           PPage priv) -> CowOutcome {
        return ptsb.onCowFault(vpage, shared, priv);
    });

    std::mt19937_64 rng(42);
    for (Addr off = 0; off < pages * smallPageBytes; off += 8) {
        std::uint64_t v = rng();
        mmu.write(p0, vbase + off, &v, 8);
    }
    std::vector<PageCase> cases(pages);
    for (unsigned p = 0; p < pages; ++p) {
        VPage vpage = (vbase >> smallPageShift) + p;
        ptsb.protectPage(vpage);
        cases[p].snap.resize(smallPageBytes);
        mmu.readShared(p0, vbase + p * smallPageBytes,
                       cases[p].snap.data(), smallPageBytes);
    }
    for (unsigned i = 0; i < 40; ++i) {
        std::uint16_t v = static_cast<std::uint16_t>(rng());
        Addr off = rng() % (pages * smallPageBytes - 2);
        mmu.write(p0, vbase + off, &v, 2);
    }
    // Both processes write byte 17 of page 1: a racy merge.
    const Addr racy_off = smallPageBytes + 17;
    std::uint8_t mine = cases[1].snap[17] ^ 1;
    std::uint8_t theirs = cases[1].snap[17] ^ 2;
    mmu.write(p0, vbase + racy_off, &mine, 1);
    mmu.write(p1, vbase + racy_off, &theirs, 1);

    CommitResult want;
    want.cost = costs.commitBase;
    std::vector<Bytes> merged(pages);
    for (unsigned p = 0; p < pages; ++p) {
        PageCase &c = cases[p];
        VPage vpage = (vbase >> smallPageShift) + p;
        Addr paddr = 0;
        ASSERT_TRUE(mmu.translatePeek(p0, vbase + p * smallPageBytes,
                                      paddr));
        c.priv.resize(smallPageBytes);
        mmu.phys().read(paddr, c.priv.data(), smallPageBytes);
        c.shared.resize(smallPageBytes);
        mmu.readShared(p0, vbase + p * smallPageBytes, c.shared.data(),
                       smallPageBytes);
        c.sharedFrame = region.frameFor(p);
        std::vector<Addr> lines;
        merged[p] = c.shared;
        RefPtsb::mergePage(c.priv.data(), c.snap.data(), merged[p].data(),
                           smallPageBytes, c.sharedFrame, costs, want,
                           lines);
        ++want.pagesDiffed;
        ASSERT_TRUE(ptsb.isProtected(vpage));
    }
    ASSERT_EQ(ptsb.dirtyPages(), pages);

    CommitResult got = ptsb.commit();
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.pagesDiffed, want.pagesDiffed);
    EXPECT_EQ(got.bytesChanged, want.bytesChanged);
    EXPECT_EQ(got.conflictBytes, want.conflictBytes);
    EXPECT_EQ(got.linesMerged, want.linesMerged);
    EXPECT_GE(got.conflictBytes, 1u);
    for (unsigned p = 0; p < pages; ++p) {
        Bytes shared(smallPageBytes);
        mmu.readShared(p0, vbase + p * smallPageBytes, shared.data(),
                       smallPageBytes);
        EXPECT_TRUE(shared == merged[p]) << "page " << p;
    }
}

} // namespace tmi
