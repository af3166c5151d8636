/**
 * @file
 * The simulated machine: the execution substrate every experiment
 * runs on.
 *
 * A Machine couples the green-thread scheduler, the MMU, the MESI
 * cache hierarchy, per-core TLBs, the PEBS/perf model, the
 * application allocator, and the synchronization layer. Workloads
 * program against ThreadApi; runtimes (Tmi, Sheriff, LASER) observe
 * and steer execution through the RuntimeHooks interface.
 *
 * Simulated wall-clock time is SimScheduler::maxClock() -- the
 * makespan across all thread clocks -- so speedups are ratios of
 * simulated cycles, not host time.
 */

#ifndef TMI_CORE_MACHINE_HH
#define TMI_CORE_MACHINE_HH

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hh"
#include "cache/cache_sim.hh"
#include "cache/tlb.hh"
#include "common/rng.hh"
#include "core/access_path.hh"
#include "detect/address_map.hh"
#include "fault/fault_injector.hh"
#include "isa/instructions.hh"
#include "mem/mmu.hh"
#include "obs/trace.hh"
#include "perf/pebs.hh"
#include "sched/scheduler.hh"
#include "sched/sync.hh"

namespace tmi
{

class Machine;
class ThreadApi;

/** Why a speculative region (lock elision, baselines/htm) aborted. */
enum class TxnAbortReason : std::uint8_t
{
    None,           //!< no abort recorded
    Conflict,       //!< remote-Modified hit observed inside the txn
    RemoteConflict, //!< another thread's access hit this txn's sets
    Capacity,       //!< bounded read/write set overflowed
    Spurious,       //!< injected htm.spurious_abort fired
    Nested,         //!< sync / bulk operation inside the txn
};

/** Human-readable name for @p reason. */
const char *txnAbortReasonName(TxnAbortReason reason);

/** Which allocator serves application memory. */
enum class AllocatorKind
{
    Lockless,  //!< per-thread size classes (the paper's baseline)
    GlibcLike, //!< shared arena, packs threads' objects together
};

/** Full machine configuration. */
struct MachineConfig
{
    unsigned cores = 4;
    unsigned pageShift = smallPageShift;
    CacheConfig cache;
    TlbConfig tlb;
    SyncCosts syncCosts;
    PerfConfig perf;
    Cycles quantum = 40;
    double cyclesPerSecond = 3.4e9;

    AllocatorKind allocator = AllocatorKind::Lockless;
    bool forceMisalign = false; //!< expose known FS bugs (section 4.3)
    /** Tmi's modified Lockless allocator: line-granular small
     *  objects (fixes allocator-induced FS such as lu-ncb). */
    bool tmiModifiedAllocator = false;

    /**
     * Heap backing: Tmi serves memory from a shared file-backed
     * mapping, which takes more expensive soft faults than the
     * anonymous private memory ordinary allocators use (section 4.4).
     */
    bool shmBackedHeap = false;
    Cycles anonFaultCost = 1200;
    Cycles shmFaultCost = 1800;
    Cycles hugeFaultExtra = 1500; //!< per-fault extra for a 2 MB fill

    Cycles regionCallbackCost = 4; //!< NOP CCC callback (section 3.4.2)
    /** Per-access tax when a static layout segment redirects the
     *  address (Huron-style index-redirection table lookup). Accesses
     *  outside any installed segment -- and every access when no
     *  layout is installed -- pay nothing. */
    Cycles staticRedirectCost = 1;
    /**
     * Predator-style compiler instrumentation: when nonzero, every
     * Nth data access is reported to the access sampler and every
     * access pays the instrumentation tax. Off (0) by default --
     * this is the heavyweight alternative to HITM sampling that the
     * related work uses for *predictive* detection.
     */
    std::uint64_t instrumentationSampling = 0;
    Cycles instrumentationCost = 25; //!< per-access tax when enabled
    std::uint64_t seed = 42;

    /** Named fault points to arm at construction (robustness runs). */
    std::vector<std::pair<std::string, FaultSpec>> faults;
    /** Seed for the fault injector's per-point streams. */
    std::uint64_t faultSeed = 0xfa17u;

    /** Structured event tracing. Disabled, no recorder is allocated
     *  and every emit site reduces to a null-pointer check. */
    obs::TraceConfig trace;

    bool operator==(const MachineConfig &) const = default;
};

/** Collect MachineConfig constraint violations under @p prefix. */
void validateConfig(const MachineConfig &config,
                    std::vector<ConfigError> &errors,
                    const std::string &prefix = "MachineConfig");

/**
 * Observation and steering interface for runtimes.
 *
 * The default implementations describe plain pthreads execution:
 * nothing is intercepted and nothing costs anything extra.
 */
class RuntimeHooks
{
  public:
    virtual ~RuntimeHooks() = default;

    /** An application thread was created (pthread_create hook). */
    virtual void onThreadCreate(ThreadId tid) { (void)tid; }

    /** An application thread returned from its start routine. */
    virtual void onThreadExit(ThreadId tid) { (void)tid; }

    /**
     * Should @p tid's plain accesses ignore PrivateCow divergence and
     * operate on shared frames right now? (True inside atomic/asm
     * regions under code-centric consistency.)
     */
    virtual bool bypassPrivate(ThreadId tid)
    {
        (void)tid;
        return false;
    }

    /**
     * Do atomic operations operate on shared pages? Tmi: yes (that
     * is what preserves their semantics). Sheriff: no -- its PTSB
     * buffers atomics too, which is exactly its correctness flaw.
     */
    virtual bool atomicsBypassPrivate() { return true; }

    /**
     * An atomic operation is about to execute.
     * @param is_rmw true for read-modify-write operations (CAS,
     *        fetch-add), which are full fences on x86-TSO.
     */
    virtual void onAtomicOp(ThreadId tid, MemOrder order, bool is_rmw)
    {
        (void)tid;
        (void)order;
        (void)is_rmw;
    }

    /** Region-transition callback (code-centric consistency). */
    virtual void onRegionEnter(ThreadId tid, RegionKind kind)
    {
        (void)tid;
        (void)kind;
    }

    /** Region-exit callback. */
    virtual void onRegionExit(ThreadId tid) { (void)tid; }

    /**
     * Sync-object init interception (pthread_mutex_init and friends):
     * may allocate a process-shared object and return its canonical
     * simulated address; return @p va to leave the object in place.
     */
    virtual Addr onSyncObjectInit(ThreadId tid, Addr va)
    {
        (void)tid;
        return va;
    }

    /** A lock/barrier/cond acquire completed (commit point). */
    virtual void onSyncAcquire(ThreadId tid) { (void)tid; }

    /** A release is about to publish (commit point). */
    virtual void onSyncRelease(ThreadId tid) { (void)tid; }

    /**
     * LASER-style store-buffer interception: return true to service
     * the access without coherence traffic, charging @p cost.
     */
    virtual bool
    interceptAccess(ThreadId tid, Addr va, bool is_write, Cycles &cost)
    {
        (void)tid;
        (void)va;
        (void)is_write;
        (void)cost;
        return false;
    }

    /**
     * Could interceptAccess currently return true for any access?
     * While false, the machine skips the per-access interceptAccess
     * call entirely (the AccessPipeline snapshots this answer); the
     * runtime must bump the machine's access epoch whenever the
     * answer changes.
     */
    virtual bool interceptArmed() { return false; }

    /** The heap grew: pages [first, first+n) are now mapped. */
    virtual void onHeapGrow(VPage first, std::uint64_t n)
    {
        (void)first;
        (void)n;
    }

    /**
     * A mutex at canonical address @p caddr is about to be acquired.
     * Return true to ELIDE the acquisition: the runtime has opened a
     * speculative region for @p tid and the machine skips both the
     * lock-word traffic and the SyncManager acquire (baselines/htm).
     */
    virtual bool onMutexLock(ThreadId tid, Addr caddr)
    {
        (void)tid;
        (void)caddr;
        return false;
    }

    /**
     * The matching unlock for @p caddr. Return true when the unlock
     * is elided too -- i.e. the speculative region committed and no
     * lock-word store or SyncManager release must happen.
     */
    virtual bool onMutexUnlock(ThreadId tid, Addr caddr)
    {
        (void)tid;
        (void)caddr;
        return false;
    }
};

/**
 * One piece of a static layout transformation: virtual addresses in
 * [begin, end) are redirected by @p shift before translation. Segments
 * describe *original* addresses; the redirected address begin + shift
 * is where the replay run actually places those bytes.
 */
struct LayoutSegment
{
    Addr begin = 0;
    Addr end = 0;
    std::int64_t shift = 0;

    bool operator==(const LayoutSegment &) const = default;
};

/**
 * The machine-level address redirection table for static (Huron-style)
 * layout repair. Keyed by allocation base so a free can drop exactly
 * the segments its allocation installed. The empty() fast path keeps
 * the access pipeline untouched when no plan is active.
 */
class StaticLayoutTable
{
  public:
    bool empty() const { return _flat.empty(); }

    std::size_t segmentCount() const { return _flat.size(); }

    /** Install @p segs (original-address ranges) under @p key. */
    void install(Addr key, std::vector<LayoutSegment> segs);

    /** Drop every segment installed under @p key. */
    void remove(Addr key);

    /** Redirected address for @p va; @p hit reports table coverage. */
    Addr redirect(Addr va, bool &hit) const;

    /**
     * Length of the longest run starting at @p va (capped at
     * @p max_len) over which the redirection shift is constant;
     * that constant is returned through @p shift (0 when uncovered).
     */
    std::uint64_t span(Addr va, std::uint64_t max_len,
                       std::int64_t &shift) const;

  private:
    void rebuild();

    std::map<Addr, std::vector<LayoutSegment>> _byKey;
    std::vector<LayoutSegment> _flat; //!< sorted by begin, disjoint
};

/** One application allocation, as recorded by the machine. */
struct AllocationRecord
{
    Addr base = 0;
    std::uint64_t bytes = 0;
    /** Deterministic allocation-site key: the workload-supplied tag,
     *  or "a<appThreadIndex>" with "#<n>" suffixed for repeats. */
    std::string site;
    bool live = true;
};

/** Workload-declared geometry of an array-like allocation site. */
struct ArraySiteGeom
{
    std::uint64_t baseOff = 0;   //!< first element's allocation offset
    std::uint64_t elemBytes = 0; //!< element stride
    std::uint64_t count = 0;     //!< element count
};

/**
 * Allocation interception for static layout repair: a PlanApplier
 * implements this to place profiled sites according to a LayoutPlan.
 * Hooks see every application allocation (ThreadApi::malloc and
 * friends); runtime internalAlloc traffic is not routed here.
 */
class AllocHook
{
  public:
    virtual ~AllocHook() = default;

    /**
     * Place the allocation for site @p key (@p alignment 0 for plain
     * malloc). Return the base address, or 0 to decline and let the
     * stock allocator serve it. An implementation that places the
     * allocation must obtain memory from the machine's allocator so
     * a later free(base) remains valid.
     */
    virtual Addr onAlloc(ThreadId tid, const std::string &key,
                         std::uint64_t bytes, Addr alignment) = 0;

    /** @p base is about to be freed (drop any installed segments). */
    virtual void onFree(ThreadId tid, Addr base)
    {
        (void)tid;
        (void)base;
    }
};

/** The simulated machine. */
class Machine : public MemoryProvider
{
  public:
    /** Base virtual address of the application heap. */
    static constexpr Addr heapBase = 0x100000000ULL;
    /** Base virtual address of Tmi's internal process-shared region
     *  (above the heap's 64 GB reservation). */
    static constexpr Addr internalBase = 0x2000000000ULL;

    explicit Machine(const MachineConfig &config = {});

    const MachineConfig &config() const { return _config; }

    /** @name Component access */
    /// @{
    Mmu &mmu() { return _mmu; }
    CacheSim &cache() { return _cache; }
    SimScheduler &sched() { return _sched; }
    SyncManager &sync() { return _sync; }
    PerfSession &perf() { return _perf; }
    FaultInjector &faults() { return _faults; }
    InstructionTable &instructions() { return _instrs; }
    const InstructionTable &instructions() const { return _instrs; }
    AddressMap &addressMap() { return _amap; }
    Allocator &allocator() { return *_alloc; }
    ShmRegion &heapRegion() { return _heap; }

    /** The trace recorder, or null when tracing is disabled. */
    obs::TraceRecorder *trace() { return _trace.get(); }
    /// @}

    /** Install the runtime (may be null for plain pthreads). */
    void setHooks(RuntimeHooks *hooks);
    RuntimeHooks *hooks() { return _hooks; }

    /**
     * The access-path invalidation epoch. Any component whose state
     * change can alter a translation or a snapshotted hook answer
     * must bump() this (see common/epoch.hh for the full rule).
     */
    InvalidationEpoch &accessEpoch() { return _pipeline.epoch(); }

    /** The cached access fast path (tests and diagnostics). */
    AccessPipeline &pipeline() { return _pipeline; }

    /** Sink for sampled accesses under instrumentation mode. */
    using AccessSampler = std::function<void(const AccessContext &)>;

    /** Install the instrumentation sink (Predator-mode detection). */
    void
    setAccessSampler(AccessSampler sampler)
    {
        _accessSampler = std::move(sampler);
    }

    /** @name Thread management */
    /// @{
    /**
     * Create an application thread (pthread_create). Fires the
     * runtime hook, attaches perf, and seeds a per-thread RNG.
     */
    ThreadId spawnThread(std::string name,
                         std::function<void(ThreadApi &)> fn);

    /**
     * Create an internal (runtime) thread: no app hooks, optionally
     * daemon. Used for Tmi's detection thread.
     */
    ThreadId spawnSystemThread(std::string name,
                               std::function<void(ThreadApi &)> fn,
                               bool daemon = true);

    /** Block until thread @p tid finishes (pthread_join). */
    void joinThread(ThreadId waiter, ThreadId target);

    /** Address space currently backing @p tid. */
    ProcessId processOf(ThreadId tid) const;

    /** Rebind @p tid to address space @p pid (T2P conversion). */
    void setThreadProcess(ThreadId tid, ProcessId pid);

    /** Core @p tid runs on. */
    CoreId coreOf(ThreadId tid) const
    {
        return static_cast<CoreId>(tid % _config.cores);
    }

    /** All application thread ids spawned so far. */
    const std::vector<ThreadId> &appThreads() const
    {
        return _appThreads;
    }

    /** Per-thread deterministic RNG. */
    Rng &rng(ThreadId tid);
    /// @}

    /** @name Memory system */
    /// @{
    /** MemoryProvider: extend the heap; maps into every process. */
    Addr sbrk(std::uint64_t bytes) override;

    /** MemoryProvider: charge allocator bookkeeping cycles. */
    void chargeCycles(ThreadId tid, Cycles cycles) override;

    /**
     * Allocate line-aligned bytes in the internal process-shared
     * region (sync objects, Tmi state). Filtered from detection.
     */
    Addr internalAlloc(std::uint64_t bytes);

    /** Bytes currently allocated in the internal region. */
    std::uint64_t internalBytes() const
    {
        return _internalBrk - internalBase;
    }

    /**
     * One simulated data access. Returns the loaded value (zero for
     * stores). @p pc must name a registered instruction whose kind
     * matches @p is_write; its width is used.
     *
     * @param bypass_private operate on the shared frame even if the
     *        page is PrivateCow (atomics / asm regions).
     */
    std::uint64_t memOp(ThreadId tid, Addr pc, Addr va, bool is_write,
                        std::uint64_t store_value, bool bypass_private);

    /**
     * A run of @p count stores at the same @p pc, walking @p va by
     * @p stride and storing value, value + value_step, ... Issues the
     * exact access stream of the equivalent memOp loop (every element
     * takes the full per-access path and may yield), but inside one
     * Machine call so workload inner loops avoid per-element
     * dispatch.
     */
    void memOpStream(ThreadId tid, Addr pc, Addr va,
                     std::uint64_t count, Addr stride,
                     std::uint64_t value, std::uint64_t value_step);

    /**
     * Bulk initialization write: page-chunked, charged at line
     * granularity rather than per byte. Takes soft faults normally.
     */
    void bulkWrite(ThreadId tid, Addr va, const void *buf,
                   std::size_t size);

    /** Bulk fill (memset) with the same costing as bulkWrite. */
    void bulkFill(ThreadId tid, Addr va, std::uint8_t byte,
                  std::size_t size);

    /** Bulk read, charged at line granularity. */
    void bulkRead(ThreadId tid, Addr va, void *buf, std::size_t size);

    /** Debug read with no cost and no faults (validation). */
    std::uint64_t peek(Addr va, unsigned width) const;

    /** Debug read of the shared (committed) view of @p va. */
    std::uint64_t peekShared(Addr va, unsigned width) const;

    /** Flush every core's TLB (mapping change). */
    void flushTlbs();
    /// @}

    /** @name Application allocation (site-tracked) */
    /// @{
    /**
     * Application malloc: consults the AllocHook (static repair),
     * falls back to the stock allocator, and records the allocation
     * under a deterministic site key (@p site, or a generated
     * per-app-thread sequence key when null).
     */
    Addr appMalloc(ThreadId tid, std::uint64_t bytes,
                   const char *site = nullptr);

    /** Application memalign with the same hook/record path. */
    Addr appMemalign(ThreadId tid, Addr alignment, std::uint64_t bytes,
                     const char *site = nullptr);

    /** Application free: retires the record and any layout segments. */
    void appFree(ThreadId tid, Addr addr);

    /** Declare array geometry for @p site (enables Spread repair). */
    void describeArraySite(const char *site, std::uint64_t base_off,
                           std::uint64_t elem_bytes,
                           std::uint64_t count);

    /** Geometry declared for @p site, or null. */
    const ArraySiteGeom *arraySite(const std::string &site) const;

    /** Install the allocation hook (may be null). */
    void setAllocHook(AllocHook *hook) { _allocHook = hook; }

    /** The static layout redirection table. */
    StaticLayoutTable &staticLayout() { return _layout; }
    const StaticLayoutTable &staticLayout() const { return _layout; }

    /** Live allocation covering @p va, or null. */
    const AllocationRecord *findAllocation(Addr va) const;

    /** Append-only log of every application allocation. */
    const std::vector<AllocationRecord> &allocationLog() const
    {
        return _allocLog;
    }
    /// @}

    /** @name Synchronization (pthread-like, with simulated traffic) */
    /// @{
    void mutexInit(ThreadId tid, Addr va);
    void mutexLock(ThreadId tid, Addr va);
    bool mutexTryLock(ThreadId tid, Addr va);
    void mutexUnlock(ThreadId tid, Addr va);
    void barrierInit(ThreadId tid, Addr va, unsigned parties);
    void barrierWait(ThreadId tid, Addr va);
    void condInit(ThreadId tid, Addr va);
    void condWait(ThreadId tid, Addr va, Addr mutex_va);
    void condSignal(ThreadId tid, Addr va);
    void condBroadcast(ThreadId tid, Addr va);
    /// @}

    /** @name Atomics (always on the shared view under Tmi) */
    /// @{
    std::uint64_t atomicLoad(ThreadId tid, Addr pc, Addr va,
                             MemOrder order);
    void atomicStore(ThreadId tid, Addr pc, Addr va, std::uint64_t v,
                     MemOrder order);
    std::uint64_t atomicFetchAdd(ThreadId tid, Addr pc, Addr va,
                                 std::uint64_t delta, MemOrder order);
    bool atomicCas(ThreadId tid, Addr pc, Addr va, std::uint64_t expect,
                   std::uint64_t desired, MemOrder order);
    /// @}

    /** @name Code regions */
    /// @{
    void regionEnter(ThreadId tid, RegionKind kind);
    void regionExit(ThreadId tid);
    /// @}

    /** @name Bounded transactional execution (lock elision)
     *
     *  A transaction speculatively executes a lock-protected region:
     *  every plain access inside it is tracked in bounded va-line
     *  read/write sets, every store is undo-logged, and the fiber
     *  stack is checkpointed at begin. Conflicts come from the MESI
     *  simulator: a remote-Modified hit inside the txn, or any other
     *  thread touching a line in the txn's sets (requester wins, so a
     *  non-speculative access always defeats a speculative one),
     *  aborts the txn -- memory is rolled back from the undo log and
     *  control re-emerges from txnBegin() returning false. With no
     *  transaction ever begun, every hook below is a single counter
     *  test, so non-elision runs stay cycle-identical. */
    /// @{
    /**
     * Open a speculative region for @p tid with the given set
     * capacities (in cache lines).
     *
     * @retval true  fresh begin: the caller is now speculating.
     * @retval false control arrived here via a rollback -- the txn
     *               aborted (see txnAbortReason()); memory and the
     *               fiber stack are back at their begin-time state.
     */
    bool txnBegin(ThreadId tid, unsigned read_lines,
                  unsigned write_lines);

    /** Commit @p tid's txn: speculative state becomes permanent. */
    void txnCommit(ThreadId tid);

    /**
     * Abort @p tid's txn from inside it. Rolls back memory and
     * rewinds the fiber; control re-emerges from txnBegin().
     */
    [[noreturn]] void txnAbortSelf(ThreadId tid, TxnAbortReason why);

    /** Is @p tid currently speculating? */
    bool txnActive(ThreadId tid) const;

    /** Why @p tid's last txn aborted (None after a commit). */
    TxnAbortReason txnAbortReason(ThreadId tid) const;

    /**
     * Did @p tid's current/last txn observe a conflicting remote
     * store? By construction an observing txn aborts before commit;
     * the chaos oracle checks this at commit time (liveness probes
     * must not mask a safety regression).
     */
    bool txnConflictObserved(ThreadId tid) const;

    /** Transactions committed / aborted machine-wide. */
    std::uint64_t txnCommitCount() const
    {
        return static_cast<std::uint64_t>(_statTxnCommits.value());
    }
    std::uint64_t txnAbortCount() const
    {
        return static_cast<std::uint64_t>(_statTxnAborts.value());
    }
    /// @}

    /** Pure compute time on @p tid. */
    void compute(ThreadId tid, Cycles cycles)
    {
        (void)tid;
        _sched.advance(cycles);
    }

    /** Soft-fault cost under the current backing configuration. */
    Cycles faultCost() const;

    /** Register every component's stats under @p group. */
    void regStats(stats::StatGroup &group);

    /** Simulated makespan so far. */
    Cycles elapsed() const { return _sched.maxClock(); }

    /** Total atomic operations executed (LASER's repair heuristic). */
    std::uint64_t
    atomicOpCount() const
    {
        return static_cast<std::uint64_t>(_statAtomicOps.value());
    }

    /** Total plain memory operations executed. */
    std::uint64_t
    memOpCount() const
    {
        return static_cast<std::uint64_t>(_statMemOps.value());
    }

  private:
    friend class ThreadApi;

    std::uint64_t readPhys(Addr paddr, unsigned width) const;
    void writePhys(Addr paddr, std::uint64_t value, unsigned width);
    /** Where a resolved access's data op goes, and its width. */
    struct ResolvedAccess
    {
        Addr paddr;
        unsigned width;
    };
    /**
     * Translation + coherence + timing for one access, without the
     * data movement. Returns the physical address the data op should
     * use and the instruction's width. Shared by memOp and the atomic
     * RMWs (which must not let the charge-phase clobber the
     * location). Order and rationale: core/access_path.hh.
     */
    ResolvedAccess accessPath(ThreadId tid, Addr pc, Addr va,
                              bool is_write, bool bypass_private);
    /** Re-query the hooks for the pipeline's snapshot (epoch miss). */
    void revalidatePipeline();
    /** Physical address of @p va through the always-shared mapping. */
    Addr sharedPaddr(ProcessId pid, Addr va) const;
    ThreadId spawnCommon(std::string name,
                         std::function<void(ThreadApi &)> fn,
                         bool daemon, bool app_thread);
    /** Canonical sync address, issuing redirection load traffic. */
    Addr syncAddr(ThreadId tid, Addr va);
    /** Abort @p tid's txn if one is active (sync/bulk inside it). */
    void txnAbortIfActive(ThreadId tid, TxnAbortReason why);
    /** Pre-access txn work: remote-abort conflicting txns, track the
     *  line in @p tid's sets, fire capacity/spurious self-aborts. */
    void txnPreAccess(ThreadId tid, Addr va, bool is_write);
    /** Post-access txn work: a remote-Modified hit aborts the txn. */
    void txnPostAccess(ThreadId tid, bool hitm);
    /** Undo-log @p paddr's old bytes before an in-txn store. */
    void txnTrackWrite(ThreadId tid, Addr paddr, unsigned width);
    /** Deterministic site key for an allocation by @p tid. */
    std::string makeSiteKey(ThreadId tid, const char *site);
    /** Record an application allocation in the log. */
    void recordAllocation(Addr base, std::uint64_t bytes,
                          std::string site);

    MachineConfig _config;
    AccessPipeline _pipeline;
    Mmu _mmu;
    ShmRegion _heap;
    ShmRegion _internal;
    Addr _heapBrk;
    Addr _internalBrk;
    SimScheduler _sched;
    SyncManager _sync;
    CacheSim _cache;
    std::vector<Tlb> _tlbs;
    PerfSession _perf;
    FaultInjector _faults;
    InstructionTable _instrs;
    AddressMap _amap;
    std::unique_ptr<Allocator> _alloc;
    std::unique_ptr<obs::TraceRecorder> _trace;
    RuntimeHooks *_hooks = nullptr;

    AccessSampler _accessSampler;
    std::uint64_t _accessSampleCounter = 0;
    std::vector<ProcessId> _threadProcess;
    std::vector<std::unique_ptr<Rng>> _threadRngs;
    /** Per-thread bulkFill scratch: bulkWrite yields between page
     *  chunks, so a shared buffer could be refilled with another
     *  thread's byte mid-copy. */
    std::vector<std::vector<std::uint8_t>> _bulkScratch;
    std::vector<ThreadId> _appThreads;
    std::unordered_map<ThreadId, std::vector<ThreadId>> _joiners;
    std::unordered_map<Addr, Addr> _syncRedirect;

    /** Per-thread speculative-execution state (lock elision). */
    struct TxnState
    {
        struct Undo
        {
            Addr paddr = 0;
            std::uint64_t old = 0;
            unsigned width = 0;
        };

        bool active = false;
        unsigned readCap = 0;
        unsigned writeCap = 0;
        /** Tracked va-lines (va >> lineShift); bounded, so linear. */
        std::vector<Addr> readLines;
        std::vector<Addr> writeLines;
        /** Accounted line counts; htm.capacity_misaccount can make
         *  these exceed the real set sizes. */
        unsigned readCount = 0;
        unsigned writeCount = 0;
        std::vector<Undo> undo;
        FiberCheckpoint ck;
        TxnAbortReason lastAbort = TxnAbortReason::None;
        bool conflictObserved = false;
    };

    /** Roll @p tx's undo log back (reverse order) and invalidate the
     *  speculatively written lines from every private cache. */
    void txnRollbackMemory(TxnState &tx);
    /** Tear @p tx down as aborted (shared by self/remote aborts). */
    void txnMarkAborted(TxnState &tx, TxnAbortReason why);

    /** Indexed by tid; deque so references survive growth. */
    std::deque<TxnState> _txns;
    /** Machine-wide active-txn count: the single gate every txn hook
     *  tests, so elision-off runs take no new work anywhere. */
    unsigned _activeTxns = 0;

    AllocHook *_allocHook = nullptr;
    StaticLayoutTable _layout;
    std::vector<AllocationRecord> _allocLog;
    std::map<Addr, std::size_t> _liveAllocs; //!< base -> log index
    std::unordered_map<std::string, std::uint32_t> _siteInstances;
    std::unordered_map<std::string, ArraySiteGeom> _arraySites;

    /** Machine-registered instruction PCs for sync-object traffic. */
    Addr _pcLockCas = 0;
    Addr _pcLockStore = 0;
    Addr _pcPtrLoad = 0;
    Addr _pcPtrStore = 0;
    Addr _pcBulk = 0;
    Addr _pcBulkStore = 0;

    stats::Scalar _statMemOps;
    stats::Scalar _statAtomicOps;
    stats::Scalar _statBulkBytes;
    stats::Scalar _statTxnCommits;
    stats::Scalar _statTxnAborts;
};

/**
 * The per-thread programming interface workloads use.
 *
 * A thin value type binding (Machine, tid); all methods forward.
 */
class ThreadApi
{
  public:
    ThreadApi(Machine &machine, ThreadId tid)
        : _machine(machine), _tid(tid)
    {}

    Machine &machine() { return _machine; }
    ThreadId tid() const { return _tid; }

    /** @name Plain accesses (PC selects kind and width) */
    /// @{
    std::uint64_t
    load(Addr pc, Addr va)
    {
        return _machine.memOp(_tid, pc, va, false, 0, false);
    }

    void
    store(Addr pc, Addr va, std::uint64_t value)
    {
        _machine.memOp(_tid, pc, va, true, value, false);
    }

    /** @p count stores at @p pc, va walking by @p stride, values
     *  value, value + value_step, ... -- one Machine call issuing
     *  the identical access stream to the equivalent store() loop. */
    void
    storeStream(Addr pc, Addr va, std::uint64_t count, Addr stride,
                std::uint64_t value = 0, std::uint64_t value_step = 0)
    {
        _machine.memOpStream(_tid, pc, va, count, stride, value,
                             value_step);
    }
    /// @}

    /** @name Atomics */
    /// @{
    std::uint64_t
    atomicLoad(Addr pc, Addr va, MemOrder order = MemOrder::SeqCst)
    {
        return _machine.atomicLoad(_tid, pc, va, order);
    }

    void
    atomicStore(Addr pc, Addr va, std::uint64_t v,
                MemOrder order = MemOrder::SeqCst)
    {
        _machine.atomicStore(_tid, pc, va, v, order);
    }

    std::uint64_t
    fetchAdd(Addr pc, Addr va, std::uint64_t delta,
             MemOrder order = MemOrder::SeqCst)
    {
        return _machine.atomicFetchAdd(_tid, pc, va, delta, order);
    }

    bool
    cas(Addr pc, Addr va, std::uint64_t expect, std::uint64_t desired,
        MemOrder order = MemOrder::SeqCst)
    {
        return _machine.atomicCas(_tid, pc, va, expect, desired, order);
    }
    /// @}

    /** @name Code regions (instrumentation callbacks) */
    /// @{
    void enterAtomic() { _machine.regionEnter(_tid, RegionKind::Atomic); }
    void exitAtomic() { _machine.regionExit(_tid); }
    void enterAsm() { _machine.regionEnter(_tid, RegionKind::Asm); }
    void exitAsm() { _machine.regionExit(_tid); }
    /// @}

    /** @name Synchronization */
    /// @{
    void mutexInit(Addr va) { _machine.mutexInit(_tid, va); }
    void mutexLock(Addr va) { _machine.mutexLock(_tid, va); }
    bool mutexTryLock(Addr va) { return _machine.mutexTryLock(_tid, va); }
    void mutexUnlock(Addr va) { _machine.mutexUnlock(_tid, va); }
    void barrierInit(Addr va, unsigned n)
    {
        _machine.barrierInit(_tid, va, n);
    }
    void barrierWait(Addr va) { _machine.barrierWait(_tid, va); }
    void condInit(Addr va) { _machine.condInit(_tid, va); }
    void condWait(Addr va, Addr m) { _machine.condWait(_tid, va, m); }
    void condSignal(Addr va) { _machine.condSignal(_tid, va); }
    void condBroadcast(Addr va) { _machine.condBroadcast(_tid, va); }
    /// @}

    /** @name Memory management */
    /// @{
    Addr malloc(std::uint64_t bytes)
    {
        return _machine.appMalloc(_tid, bytes);
    }

    /** malloc under a named allocation site (static repair). */
    Addr mallocAt(const char *site, std::uint64_t bytes)
    {
        return _machine.appMalloc(_tid, bytes, site);
    }

    void free(Addr addr) { _machine.appFree(_tid, addr); }

    Addr memalign(Addr alignment, std::uint64_t bytes)
    {
        return _machine.appMemalign(_tid, alignment, bytes);
    }

    /** memalign under a named allocation site (static repair). */
    Addr memalignAt(const char *site, Addr alignment,
                    std::uint64_t bytes)
    {
        return _machine.appMemalign(_tid, alignment, bytes, site);
    }

    /** Declare array geometry for @p site (enables Spread repair). */
    void describeArray(const char *site, std::uint64_t base_off,
                       std::uint64_t elem_bytes, std::uint64_t count)
    {
        _machine.describeArraySite(site, base_off, elem_bytes, count);
    }
    /// @}

    /** @name Bulk and misc */
    /// @{
    void
    fill(Addr va, std::uint8_t byte, std::size_t n)
    {
        _machine.bulkFill(_tid, va, byte, n);
    }

    void
    writeBuf(Addr va, const void *buf, std::size_t n)
    {
        _machine.bulkWrite(_tid, va, buf, n);
    }

    void
    readBuf(Addr va, void *buf, std::size_t n)
    {
        _machine.bulkRead(_tid, va, buf, n);
    }

    void compute(Cycles c) { _machine.compute(_tid, c); }

    ThreadId
    spawn(std::string name, std::function<void(ThreadApi &)> fn)
    {
        return _machine.spawnThread(std::move(name), std::move(fn));
    }

    void join(ThreadId target) { _machine.joinThread(_tid, target); }

    Rng &rng() { return _machine.rng(_tid); }
    /// @}

  private:
    Machine &_machine;
    ThreadId _tid;
};

} // namespace tmi

#endif // TMI_CORE_MACHINE_HH
