/**
 * @file
 * The page twinning store buffer (PTSB), paper section 2.2 / 3.3.
 *
 * One Ptsb instance serves one converted process (one isolated
 * thread). Protected pages are PrivateCow in the process's address
 * space: the first write faults, and the fault handler snapshots the
 * shared page as the *twin* while the MMU gives the process a private
 * mutable copy. At each synchronization operation commit() diffs each
 * mutable page against its twin, merges exactly the changed bytes
 * into shared memory, and re-arms the page.
 *
 * Merging only the changed bytes is what makes the PTSB cheap -- and
 * what breaks aligned multi-byte store atomicity (AMBSA) under data
 * races (Figure 3): a racy 2-byte store whose low byte matches the
 * twin merges as a 1-byte store. That behaviour is genuine here, not
 * modeled; the consistency tests rely on it.
 */

#ifndef TMI_PTSB_PTSB_HH
#define TMI_PTSB_PTSB_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_sim.hh"
#include "mem/mmu.hh"

namespace tmi
{

/** Cycle costs of PTSB maintenance operations. */
struct PtsbCosts
{
    Cycles protectPage = 700;    //!< mprotect + TLB shootdown, per page
    Cycles unprotectPage = 700;  //!< mprotect back + shootdown, per page
    Cycles twinCopyPer4k = 500;  //!< copying one 4 KB chunk at fault
    Cycles diffPer4k = 400;      //!< scanning one 4 KB chunk at commit
    Cycles memcmpPer4k = 90;     //!< huge-page memcmp pre-filter per 4 KB
    Cycles mergePerLine = 45;    //!< writing one changed line + coherence
    Cycles commitBase = 150;     //!< fixed cost per dirty commit
    /** Cost multiplier when the ptsb.oversize_commit fault fires
     *  (cold caches / pathological diff). */
    Cycles oversizeFactor = 64;

    bool operator==(const PtsbCosts &) const = default;
};

/** Result of one commit. */
struct CommitResult
{
    Cycles cost = 0;
    std::uint64_t pagesDiffed = 0;
    std::uint64_t bytesChanged = 0;
    std::uint64_t linesMerged = 0;
    /**
     * Bytes this commit overwrote that some other process had
     * already changed since our twin was taken (shared[i] != twin[i]
     * at merge time). Nonzero conflicts mean concurrent conflicting
     * writes reached the same bytes through two PTSBs -- a data race
     * whose merge order is arbitrary. Useful as an online AMBSA /
     * racy-merge diagnostic (Lemma 3.1: race-free programs never
     * produce conflicts).
     */
    std::uint64_t conflictBytes = 0;
};

/** A per-process page twinning store buffer. */
class Ptsb
{
  public:
    /**
     * @param cache optional: merged lines are invalidated there so
     *              commit's coherence traffic is visible to timing.
     * @param faults optional fault injector (twin allocation failure,
     *               oversized commits).
     */
    Ptsb(Mmu &mmu, ProcessId pid, const PtsbCosts &costs = {},
         CacheSim *cache = nullptr, FaultInjector *faults = nullptr);

    ProcessId pid() const { return _pid; }

    /**
     * Protect @p vpage: subsequent writes by this process are
     * buffered until the next commit.
     * @return the cost to charge (0 if already protected).
     */
    Cycles protectPage(VPage vpage);

    /** Stop buffering @p vpage (changes must be committed first). */
    void unprotectPage(VPage vpage);

    /**
     * Drop @p vpage from the protected set without touching the MMU.
     *
     * Used when the MMU already reverted the page to SharedRW after
     * an unserviceable COW fault; the page must not hold a twin.
     */
    void forgetPage(VPage vpage);

    /**
     * Tear the whole buffer down: commit outstanding twins, then
     * unprotect every page (un-repair / rollback path).
     *
     * @return the total cycle cost (commit + per-page mprotect).
     */
    Cycles dissolve();

    /** True if @p vpage is currently under the PTSB. */
    bool isProtected(VPage vpage) const;

    /**
     * COW-fault hook: snapshot the twin for @p vpage.
     *
     * Wired to the Mmu's CowCallback by the runtime; must be called
     * exactly when the private frame is created.
     * @return cost of the fault + twin copy to charge the faulting
     *         thread; `ok == false` when the twin allocation failed
     *         (injected), in which case no twin was taken and the
     *         MMU must abandon the COW.
     */
    CowOutcome onCowFault(VPage vpage, PPage shared_frame,
                          PPage private_frame);

    /**
     * Diff every dirty page against its twin, merge changed bytes
     * into shared memory, drop private frames, and re-arm.
     *
     * The diff skips clean 64-byte lines, compares 8 bytes at a time
     * inside a dirty line, and walks bytes only inside a word that
     * differs (see mergePage). Huge pages are pre-filtered 4 KB at a
     * time with memcmp first (paper section 4.4).
     */
    CommitResult commit();

    /**
     * Commit's per-page diff and merge: copy each byte where @p priv
     * differs from the twin @p snap into @p shared, in address order,
     * and add the charges and counts to @p res. Merges and charges
     * are exactly those of a byte-at-a-time diff: per 4 KB chunk
     * scanned (diffPer4k; huge pages also memcmpPer4k per chunk) and
     * per merged line (mergePerLine), never per word or line compared.
     * Appends the physical address of each newly merged line to
     * @p merged_lines, in merge order; commit() invalidates those.
     *
     * @param shared_frame the shared page's frame number, which
     *                     places the merged lines physically.
     */
    static void mergePage(const std::uint8_t *priv,
                          const std::uint8_t *snap, std::uint8_t *shared,
                          Addr page_bytes, PPage shared_frame,
                          const PtsbCosts &costs, CommitResult &res,
                          std::vector<Addr> &merged_lines);

    /** Number of pages currently protected. */
    std::size_t protectedPages() const { return _protected.size(); }

    /** Number of pages with an outstanding (uncommitted) twin. */
    std::size_t dirtyPages() const { return _twins.size(); }

    /** Bytes of twin snapshots currently held (Figure 8 accounting). */
    std::uint64_t twinBytes() const;

    /** Total commits performed. */
    std::uint64_t commits() const
    {
        return static_cast<std::uint64_t>(_statCommits.value());
    }

    /** Lifetime racy-merge bytes (see CommitResult::conflictBytes). */
    std::uint64_t conflictBytes() const
    {
        return static_cast<std::uint64_t>(_statConflictBytes.value());
    }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    struct Twin
    {
        std::unique_ptr<std::uint8_t[]> snapshot; //!< one page
        PPage sharedFrame = invalidPPage;
        PPage privateFrame = invalidPPage;
    };

    Mmu &_mmu;
    ProcessId _pid;
    PtsbCosts _costs;
    CacheSim *_cache;
    FaultInjector *_faults;

    std::unordered_map<VPage, bool> _protected;
    std::unordered_map<VPage, Twin> _twins;
    std::vector<Addr> _mergedLines; //!< reused by commit() per page

    stats::Scalar _statCommits;
    stats::Scalar _statPagesDiffed;
    stats::Scalar _statBytesMerged;
    stats::Scalar _statTwinsCreated;
    stats::Scalar _statConflictBytes;
    stats::Scalar _statTwinAllocFails;
    stats::Scalar _statOversizeCommits;
};

} // namespace tmi

#endif // TMI_PTSB_PTSB_HH
