/**
 * @file
 * AccessPipeline: the cached fast path in front of the per-access
 * machinery.
 *
 * Machine::accessPath used to recompute three things on every
 * simulated load/store: the PC's static InstrInfo (a bounds-checked
 * table walk, twice per memOp), the page translation (an
 * unordered_map walk through the address space), and the runtime
 * hook state (virtual calls answering questions whose answers change
 * only at rare, well-defined events). This layer caches all three:
 *
 *  - a per-core direct-mapped PC cache in front of the isa table
 *    (instructions are immutable once defined, so entries never
 *    expire);
 *  - a per-core direct-mapped (pid, vpage) -> frame-base software
 *    translation cache in front of Mmu::translate. A touched page is
 *    cacheable, for reads and writes, when it is SharedRW or when it
 *    is PrivateCow and already holds its private frame: for exactly
 *    those, translate() is pure (no faults, no stats, no RNG draws,
 *    no extra cost), so serving the cached frame is bit-identical. A
 *    PrivateCow page without a private frame is not: its next write
 *    must COW-fault. Every site that retires a private frame (drop,
 *    and so PTSB commit; unprotect; COW abandonment) or copies one
 *    (clone) bumps the epoch.
 *    This cache is *host-side only* -- distinct from the timed TLB
 *    model in src/cache/tlb.hh, which stays on the per-access path
 *    because its hit/miss stream is part of the simulated contract;
 *  - a snapshot of the hook-state word (intercept-armed /
 *    atomics-bypass) so the per-access virtual RuntimeHooks queries
 *    collapse to flag reads, plus per-thread bypass-private flags
 *    push-updated at region transitions.
 *
 * Validity is governed by the global InvalidationEpoch (see
 * common/epoch.hh): every translation entry carries the epoch value
 * it was inserted under and dies automatically when any mutation
 * site bumps the counter; the hook snapshot is re-queried on
 * mismatch. The simulated side effects that must stay per-access --
 * TLB lookup, coherence simulation, stats, instrumentation
 * sampling, scheduler advance -- are untouched by design.
 *
 * Machine::accessPath's order, after the PC lookup and the layout
 * redirect: LASER intercept (which does its own TLB lookup), then
 * translate (this frame cache, Mmu::translate, or the shared mapping
 * for bypassed accesses), then a host prefetch of the simulated bytes
 * at the physical address, then the simulated TLB lookup, the txn
 * pre-access check and CacheSim. Translation goes first so the
 * prefetch overlaps the TLB model and CacheSim; the two never touch
 * each other's state, so only their summed latency is observable. The
 * simulated TLB must run before anything that can rewind the fiber
 * (a txn self-abort restores its checkpoint), or its counters change.
 * A host prefetch cannot change simulated state: it reads through a
 * const PhysicalMemory accessor that never materializes a frame, and
 * prefetching has no architectural effect. CacheSim likewise
 * prefetches the LLC set's tag row on an L1 miss; the LLC is stored
 * as a tag row and an LRU stamp row per set. DESIGN.md section 4d.
 */

#ifndef TMI_CORE_ACCESS_PATH_HH
#define TMI_CORE_ACCESS_PATH_HH

#include <vector>

#include "common/epoch.hh"
#include "common/types.hh"
#include "isa/instructions.hh"

namespace tmi
{

/** The cached per-access fast path (see file comment). */
class AccessPipeline
{
  public:
    explicit AccessPipeline(unsigned cores);

    /** The global invalidation epoch every mutation site bumps. */
    InvalidationEpoch &epoch() { return _epoch; }
    const InvalidationEpoch &epoch() const { return _epoch; }

    /** What the hot path needs from an InstrInfo, by value so the
     *  holder survives a cache eviction across a scheduler yield. */
    struct CachedInstr
    {
        Addr pc = ~Addr{0};
        unsigned width = 0;
        bool isStore = false;
    };

    /**
     * PC -> (kind, width) through the per-core cache; fills from
     * @p instrs (asserting validity) on miss. Instructions are
     * immutable and the table is append-only, so hits never need
     * epoch validation.
     */
    CachedInstr
    instr(CoreId core, Addr pc, const InstructionTable &instrs)
    {
        PcEntry &e = _pcs[core * pcWays + pcIndex(pc)];
        if (e.info.pc != pc) {
            const InstrInfo &info = instrs.lookup(pc);
            e.info.pc = pc;
            e.info.width = info.width;
            e.info.isStore = info.kind == MemKind::Store;
        }
        return e.info;
    }

    /**
     * Translation-cache probe for (pid, vpage): true plus the frame
     * base address on a valid hit. Entries from older epochs miss.
     */
    bool
    frameLookup(CoreId core, ProcessId pid, VPage vpage,
                Addr &frame_base) const
    {
        const FrameEntry &e =
            _frames[core * frameWays + frameIndex(pid, vpage)];
        if (e.epoch != _epoch.value() || e.vpage != vpage ||
            e.pid != pid) {
            return false;
        }
        frame_base = e.frameBase;
        return true;
    }

    /** Install a translation proven cacheable by Mmu::translate. */
    void
    frameInsert(CoreId core, ProcessId pid, VPage vpage,
                Addr frame_base)
    {
        FrameEntry &e =
            _frames[core * frameWays + frameIndex(pid, vpage)];
        e.vpage = vpage;
        e.pid = pid;
        e.frameBase = frame_base;
        e.epoch = _epoch.value();
    }

    /** @name Hook-state snapshot */
    /// @{
    /** True when the snapshot predates the current epoch. */
    bool stale() const { return _snapshotEpoch != _epoch.value(); }

    /** Refresh the snapshot; the owner supplies the hook answers. */
    void
    revalidate(bool intercept_armed, bool atomics_bypass)
    {
        _interceptArmed = intercept_armed;
        _atomicsBypass = atomics_bypass;
        _snapshotEpoch = _epoch.value();
    }

    /** Is any runtime interception (LASER store buffer) armed? */
    bool interceptArmed() const { return _interceptArmed; }

    /** Do atomics operate on the shared view? */
    bool atomicsBypass() const { return _atomicsBypass; }
    /// @}

    /** @name Per-thread bypass-private flags
     *  Push-updated by the Machine at every event that can change
     *  RuntimeHooks::bypassPrivate's answer (region enter/exit,
     *  thread creation, hook install), so the per-access virtual
     *  query collapses to a byte read. */
    /// @{
    bool
    bypassPrivate(ThreadId tid) const
    {
        return tid < _bypass.size() && _bypass[tid] != 0;
    }

    void
    setBypassPrivate(ThreadId tid, bool bypass)
    {
        if (_bypass.size() <= tid)
            _bypass.resize(tid + 1, 0);
        _bypass[tid] = bypass ? 1 : 0;
    }

    /** Threads with a recorded flag (hook-install recompute). */
    ThreadId
    bypassCount() const
    {
        return static_cast<ThreadId>(_bypass.size());
    }
    /// @}

  private:
    static constexpr unsigned pcWays = 32;    //!< per core
    static constexpr unsigned frameWays = 64; //!< per core

    static unsigned
    pcIndex(Addr pc)
    {
        return static_cast<unsigned>(pc >> 2) & (pcWays - 1);
    }

    static unsigned
    frameIndex(ProcessId pid, VPage vpage)
    {
        return static_cast<unsigned>(vpage + pid) & (frameWays - 1);
    }

    struct PcEntry
    {
        CachedInstr info;
    };

    struct FrameEntry
    {
        VPage vpage = ~VPage{0};
        ProcessId pid = 0;
        Addr frameBase = 0;
        std::uint64_t epoch = 0; //!< 0 = never valid (epoch starts at 1)
    };

    InvalidationEpoch _epoch;
    std::vector<PcEntry> _pcs;       //!< cores x pcWays
    std::vector<FrameEntry> _frames; //!< cores x frameWays

    bool _interceptArmed = false;
    bool _atomicsBypass = true;
    std::uint64_t _snapshotEpoch = 0;

    std::vector<std::uint8_t> _bypass; //!< per-thread, sized on use
};

} // namespace tmi

#endif // TMI_CORE_ACCESS_PATH_HH
