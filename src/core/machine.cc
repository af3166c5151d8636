#include "machine.hh"

#include <algorithm>
#include <cstring>

#include "alloc/glibc_like.hh"
#include "alloc/lockless.hh"

namespace tmi
{

// ---------------------------------------------------------------------
// StaticLayoutTable

void
StaticLayoutTable::install(Addr key, std::vector<LayoutSegment> segs)
{
    auto &slot = _byKey[key];
    slot.clear();
    for (const LayoutSegment &s : segs) {
        if (s.end > s.begin)
            slot.push_back(s);
    }
    if (slot.empty())
        _byKey.erase(key);
    rebuild();
}

void
StaticLayoutTable::remove(Addr key)
{
    if (_byKey.erase(key))
        rebuild();
}

void
StaticLayoutTable::rebuild()
{
    _flat.clear();
    for (const auto &[key, segs] : _byKey)
        _flat.insert(_flat.end(), segs.begin(), segs.end());
    std::sort(_flat.begin(), _flat.end(),
              [](const LayoutSegment &a, const LayoutSegment &b) {
                  return a.begin < b.begin;
              });
}

Addr
StaticLayoutTable::redirect(Addr va, bool &hit) const
{
    auto it = std::upper_bound(
        _flat.begin(), _flat.end(), va,
        [](Addr v, const LayoutSegment &s) { return v < s.begin; });
    if (it != _flat.begin()) {
        --it;
        if (va < it->end) {
            hit = true;
            return static_cast<Addr>(
                static_cast<std::int64_t>(va) + it->shift);
        }
    }
    hit = false;
    return va;
}

std::uint64_t
StaticLayoutTable::span(Addr va, std::uint64_t max_len,
                        std::int64_t &shift) const
{
    shift = 0;
    if (_flat.empty() || max_len == 0)
        return max_len;
    auto it = std::upper_bound(
        _flat.begin(), _flat.end(), va,
        [](Addr v, const LayoutSegment &s) { return v < s.begin; });
    if (it != _flat.begin()) {
        auto prev = std::prev(it);
        if (va < prev->end) {
            shift = prev->shift;
            return std::min<std::uint64_t>(max_len, prev->end - va);
        }
    }
    if (it == _flat.end())
        return max_len;
    return std::min<std::uint64_t>(max_len, it->begin - va);
}

void
validateConfig(const MachineConfig &config,
               std::vector<ConfigError> &errors,
               const std::string &prefix)
{
    if (config.cores == 0) {
        errors.push_back({prefix + ".cores",
                          "must be >= 1: something has to run the "
                          "threads"});
    } else if (config.cores > maxCacheCores) {
        errors.push_back({prefix + ".cores",
                          "must be <= 32: the cache simulator tracks "
                          "line holders in a 32-bit core mask"});
    }
    if (config.pageShift < smallPageShift ||
        config.pageShift > hugePageShift) {
        errors.push_back({prefix + ".pageShift",
                          "must be between 12 (4 KB) and 21 (2 MB)"});
    }
    if (config.quantum == 0) {
        errors.push_back({prefix + ".quantum",
                          "must be positive: a zero quantum never "
                          "preempts and single-threads the machine"});
    }
    if (config.cyclesPerSecond <= 0) {
        errors.push_back({prefix + ".cyclesPerSecond",
                          "must be positive: wall-clock conversions "
                          "would divide by zero"});
    }
    for (const auto &[point, spec] : config.faults) {
        if (point.empty()) {
            errors.push_back({prefix + ".faults",
                              "fault points need non-empty names"});
        }
        if (spec.probability < 0.0 || spec.probability > 1.0) {
            errors.push_back({prefix + ".faults[" + point + "]",
                              "probability must be in [0, 1]"});
        }
    }
    validateConfig(config.cache, errors, prefix + ".cache");
    validateConfig(config.perf, errors, prefix + ".perf");
    obs::validateConfig(config.trace, errors, prefix + ".trace");
}

namespace
{

/** @p config, or fatal() listing every error: the members built from
 *  it (the cache simulator among them) never see an invalid one. */
const MachineConfig &
validated(const MachineConfig &config)
{
    std::vector<ConfigError> errors;
    validateConfig(config, errors);
    fatalIfConfigErrors(errors);
    return config;
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : _config(validated(config)), _pipeline(config.cores),
      _mmu(config.pageShift), _heap("tmi_heap", _mmu.phys()),
      _internal("tmi_internal", _mmu.phys()), _heapBrk(heapBase),
      _internalBrk(internalBase), _sched(config.quantum),
      _sync(_sched, config.syncCosts),
      _cache([&config] {
          CacheConfig c = config.cache;
          c.cores = config.cores;
          return c;
      }()),
      _perf(config.perf), _faults(config.faultSeed)
{
    for (unsigned c = 0; c < config.cores; ++c)
        _tlbs.emplace_back(config.tlb, config.pageShift);

    // The access-path caches die whenever a mapping mutates.
    _mmu.setEpoch(&_pipeline.epoch());

    // Fault injection: arm the configured points and wire the
    // injector into the layers that can fail. With no armed points
    // the wiring is free (a null-check or an empty-table probe).
    for (const auto &[point, spec] : config.faults)
        _faults.arm(point, spec);
    _mmu.setFaultInjector(&_faults);
    _perf.setFaultInjector(&_faults);
    // Windowed specs fire by simulated time; outside any thread (e.g.
    // init-time queries) the makespan stands in for the clock.
    _faults.setClock([this] {
        return _sched.current() ? _sched.now() : _sched.maxClock();
    });

    // Observability: the recorder exists only when tracing is on, so
    // the disabled path costs one null-pointer check per emit site.
    if (config.trace.enabled && obs::TraceRecorder::compiledIn) {
        _trace = std::make_unique<obs::TraceRecorder>(config.trace);
        _trace->setClock(
            [this] { return _sched.current() ? _sched.now() : 0; });
        _trace->setThreadSource([this]() -> ThreadId {
            return _sched.current() ? _sched.current()->tid() : 0;
        });
        _mmu.setTrace(_trace.get());
        _perf.setTrace(_trace.get());
        _faults.setTrace(_trace.get());
    }

    // The root address space all threads initially share.
    ProcessId root = _mmu.createAddressSpace();
    TMI_ASSERT(root == 0);

    // PEBS wiring: HITM coherence events flow to the perf session,
    // which charges the triggering access the assist cost when a
    // record is emitted.
    _cache.setHitmCallback([this](const AccessContext &ctx) {
        return _perf.onHitm(ctx, _sched.current() ? _sched.now() : 0);
    });

    // The detector's /proc/pid/maps view: heap and globals are
    // eligible; Tmi-internal memory is filtered like a system
    // library, so Tmi never tries to repair its own lock objects.
    _amap.add(heapBase, Addr{64} << 30, RangeKind::AppHeap, "heap");
    _amap.add(internalBase, Addr{1} << 30, RangeKind::SystemLib,
              "tmi-internal");

    // Memory instructions the machine itself issues for sync-object
    // traffic (the lock word CAS is what makes spinlockpool's false
    // sharing visible to the coherence protocol).
    _pcLockCas = _instrs.define("sync.lock.cas", MemKind::Store, 4);
    _pcLockStore = _instrs.define("sync.lock.store", MemKind::Store, 4);
    // The redirection word Tmi installs in a sync object. Modeled as
    // 4 bytes so it fits even in a packed boost-style spinlock; the
    // authoritative mapping is the runtime's redirect table.
    _pcPtrLoad = _instrs.define("sync.ptr.load", MemKind::Load, 4);
    _pcPtrStore = _instrs.define("sync.ptr.store", MemKind::Store, 4);

    switch (config.allocator) {
      case AllocatorKind::Lockless: {
        LocklessConfig lc;
        lc.forceMisalign = config.forceMisalign;
        if (config.tmiModifiedAllocator)
            lc.minSmallBytes = lineBytes;
        _alloc = std::make_unique<LocklessAllocator>(*this, lc);
        break;
      }
      case AllocatorKind::GlibcLike:
        _alloc = std::make_unique<GlibcLikeAllocator>(*this);
        break;
    }
    _alloc->setFaultInjector(&_faults);
    _alloc->setTrace(_trace.get());
}

// ---------------------------------------------------------------------
// Threads

ThreadId
Machine::spawnCommon(std::string name,
                     std::function<void(ThreadApi &)> fn, bool daemon,
                     bool app_thread)
{
    ThreadId parent_tid =
        _sched.current() ? _sched.current()->tid() : ~ThreadId{0};
    ProcessId pid = 0;
    if (parent_tid != ~ThreadId{0} && parent_tid < _threadProcess.size())
        pid = _threadProcess[parent_tid];

    ThreadId tid = _sched.spawn(
        name,
        [this, body = std::move(fn)]() {
            ThreadId self = _sched.current()->tid();
            ThreadApi api(*this, self);
            body(api);
            bool is_app = false;
            for (ThreadId t : _appThreads) {
                if (t == self) {
                    is_app = true;
                    break;
                }
            }
            if (is_app && _hooks)
                _hooks->onThreadExit(self);
            auto it = _joiners.find(self);
            if (it != _joiners.end()) {
                for (ThreadId waiter : it->second)
                    _sched.wake(waiter, _sched.now());
                _joiners.erase(it);
            }
        },
        daemon);

    if (_threadProcess.size() <= tid) {
        _threadProcess.resize(tid + 1, 0);
        _threadRngs.resize(tid + 1);
    }
    _threadProcess[tid] = pid;
    // Seed by app-thread creation index, not raw tid: runtimes add
    // system threads that shift tids, and workload randomness must
    // not depend on which runtime is attached.
    std::uint64_t seed_index =
        app_thread ? _appThreads.size() + 1 : 1000 + tid;
    _threadRngs[tid] = std::make_unique<Rng>(
        _config.seed ^ (0x9e3779b9ULL * (seed_index + 1)));

    if (app_thread) {
        _appThreads.push_back(tid);
        _perf.attachThread(tid);
        if (_hooks)
            _hooks->onThreadCreate(tid);
    }
    _pipeline.setBypassPrivate(tid,
                               _hooks && _hooks->bypassPrivate(tid));
    return tid;
}

ThreadId
Machine::spawnThread(std::string name,
                     std::function<void(ThreadApi &)> fn)
{
    // pthread_create has release semantics: the child must observe
    // everything the parent wrote before the create (e.g. input data
    // the parent initialized while its pages were PTSB-buffered).
    if (_hooks && _sched.current())
        _hooks->onSyncRelease(_sched.current()->tid());
    return spawnCommon(std::move(name), std::move(fn), false, true);
}

ThreadId
Machine::spawnSystemThread(std::string name,
                           std::function<void(ThreadApi &)> fn,
                           bool daemon)
{
    return spawnCommon(std::move(name), std::move(fn), daemon, false);
}

void
Machine::joinThread(ThreadId waiter, ThreadId target)
{
    if (_sched.thread(target).state() != SimThread::State::Finished) {
        _joiners[target].push_back(waiter);
        _sched.block();
    }
    // pthread_join has acquire semantics: drop any buffered pages so
    // the joiner reads the target's published results.
    if (_hooks)
        _hooks->onSyncAcquire(waiter);
}

ProcessId
Machine::processOf(ThreadId tid) const
{
    TMI_ASSERT(tid < _threadProcess.size());
    return _threadProcess[tid];
}

void
Machine::setThreadProcess(ThreadId tid, ProcessId pid)
{
    TMI_ASSERT(tid < _threadProcess.size());
    _threadProcess[tid] = pid;
    // T2P rebind: cached (pid, vpage) translations stay keyed by the
    // old pid but the hook answers may shift with the rebind.
    _pipeline.epoch().bump();
}

void
Machine::setHooks(RuntimeHooks *hooks)
{
    _hooks = hooks;
    _pipeline.epoch().bump();
    // The bypass flags are push-updated, not epoch-checked, so a new
    // runtime must recompute them for every thread spawned so far.
    for (ThreadId tid = 0; tid < _threadProcess.size(); ++tid) {
        _pipeline.setBypassPrivate(tid,
                                   _hooks && _hooks->bypassPrivate(tid));
    }
}

Rng &
Machine::rng(ThreadId tid)
{
    TMI_ASSERT(tid < _threadRngs.size() && _threadRngs[tid]);
    return *_threadRngs[tid];
}

// ---------------------------------------------------------------------
// Memory

Addr
Machine::sbrk(std::uint64_t bytes)
{
    std::uint64_t page_bytes = _mmu.pageBytes();
    std::uint64_t pages = (bytes + page_bytes - 1) / page_bytes;
    std::uint64_t old_pages = _heap.grow(pages);
    Addr vbase = heapBase + old_pages * page_bytes;
    for (ProcessId pid = 0; pid < _mmu.spaceCount(); ++pid)
        _mmu.mapShared(pid, vbase, _heap, old_pages, pages);
    _heapBrk = vbase + pages * page_bytes;
    if (_hooks)
        _hooks->onHeapGrow(vbase >> _mmu.pageShift(), pages);
    return vbase;
}

void
Machine::chargeCycles(ThreadId tid, Cycles cycles)
{
    (void)tid; // charged to the calling thread by construction
    if (_sched.current())
        _sched.advance(cycles);
}

Addr
Machine::internalAlloc(std::uint64_t bytes)
{
    bytes = roundUp(bytes, lineBytes);
    std::uint64_t page_bytes = _mmu.pageBytes();
    Addr mapped_end =
        internalBase + _internal.pages() * page_bytes;
    if (_internalBrk + bytes > mapped_end) {
        std::uint64_t need = _internalBrk + bytes - mapped_end;
        std::uint64_t pages = (need + page_bytes - 1) / page_bytes;
        std::uint64_t old_pages = _internal.grow(pages);
        Addr vbase = internalBase + old_pages * page_bytes;
        for (ProcessId pid = 0; pid < _mmu.spaceCount(); ++pid)
            _mmu.mapShared(pid, vbase, _internal, old_pages, pages);
    }
    Addr addr = _internalBrk;
    _internalBrk += bytes;
    return addr;
}

// ---------------------------------------------------------------------
// Application allocation

std::string
Machine::makeSiteKey(ThreadId tid, const char *site)
{
    std::string name;
    if (site && *site) {
        name = site;
    } else {
        // Untagged: key by app-thread creation index, not raw tid --
        // runtimes add system threads that shift tids, and a profile
        // must match its replay regardless of what was attached.
        std::size_t idx = _appThreads.size();
        for (std::size_t i = 0; i < _appThreads.size(); ++i) {
            if (_appThreads[i] == tid) {
                idx = i;
                break;
            }
        }
        name = idx < _appThreads.size()
                   ? "a" + std::to_string(idx)
                   : "sys" + std::to_string(tid);
    }
    std::uint32_t n = _siteInstances[name]++;
    return n == 0 ? name : name + "#" + std::to_string(n);
}

void
Machine::recordAllocation(Addr base, std::uint64_t bytes,
                          std::string site)
{
    _liveAllocs[base] = _allocLog.size();
    _allocLog.push_back({base, bytes, std::move(site), true});
}

Addr
Machine::appMalloc(ThreadId tid, std::uint64_t bytes, const char *site)
{
    std::string key = makeSiteKey(tid, site);
    Addr addr = 0;
    if (_allocHook)
        addr = _allocHook->onAlloc(tid, key, bytes, 0);
    if (!addr)
        addr = _alloc->malloc(tid, bytes);
    recordAllocation(addr, bytes, std::move(key));
    return addr;
}

Addr
Machine::appMemalign(ThreadId tid, Addr alignment, std::uint64_t bytes,
                     const char *site)
{
    std::string key = makeSiteKey(tid, site);
    Addr addr = 0;
    if (_allocHook)
        addr = _allocHook->onAlloc(tid, key, bytes, alignment);
    if (!addr)
        addr = _alloc->memalign(tid, alignment, bytes);
    recordAllocation(addr, bytes, std::move(key));
    return addr;
}

void
Machine::appFree(ThreadId tid, Addr addr)
{
    auto it = _liveAllocs.find(addr);
    if (it != _liveAllocs.end()) {
        _allocLog[it->second].live = false;
        _liveAllocs.erase(it);
    }
    if (_allocHook)
        _allocHook->onFree(tid, addr);
    _alloc->free(tid, addr);
}

void
Machine::describeArraySite(const char *site, std::uint64_t base_off,
                           std::uint64_t elem_bytes,
                           std::uint64_t count)
{
    TMI_ASSERT(site && *site, "array sites must be named");
    _arraySites[site] = {base_off, elem_bytes, count};
}

const ArraySiteGeom *
Machine::arraySite(const std::string &site) const
{
    auto it = _arraySites.find(site);
    return it == _arraySites.end() ? nullptr : &it->second;
}

const AllocationRecord *
Machine::findAllocation(Addr va) const
{
    auto it = _liveAllocs.upper_bound(va);
    if (it == _liveAllocs.begin())
        return nullptr;
    --it;
    const AllocationRecord &rec = _allocLog[it->second];
    return va < rec.base + rec.bytes ? &rec : nullptr;
}

std::uint64_t
Machine::readPhys(Addr paddr, unsigned width) const
{
    std::uint8_t buf[8] = {};
    _mmu.phys().read(paddr, buf, width);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return v;
}

void
Machine::writePhys(Addr paddr, std::uint64_t value, unsigned width)
{
    std::uint8_t buf[8];
    for (unsigned i = 0; i < width; ++i)
        buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    _mmu.phys().write(paddr, buf, width);
}

Addr
Machine::sharedPaddr(ProcessId pid, Addr va) const
{
    const PageEntry *entry =
        _mmu.space(pid).find(va >> _mmu.pageShift());
    TMI_ASSERT(entry, "shared access to unmapped page");
    PPage frame = entry->backing->frameFor(entry->filePage);
    Addr off = va & (_mmu.pageBytes() - 1);
    return (frame << _mmu.pageShift()) | off;
}

Cycles
Machine::faultCost() const
{
    Cycles c = _config.shmBackedHeap ? _config.shmFaultCost
                                     : _config.anonFaultCost;
    if (_config.pageShift >= hugePageShift)
        c += _config.hugeFaultExtra;
    return c;
}

void
Machine::revalidatePipeline()
{
    _pipeline.revalidate(_hooks && _hooks->interceptArmed(),
                         !_hooks || _hooks->atomicsBypassPrivate());
}

Machine::ResolvedAccess
Machine::accessPath(ThreadId tid, Addr pc, Addr va, bool is_write,
                    bool bypass_private)
{
    CoreId core = coreOf(tid);
    AccessPipeline::CachedInstr info =
        _pipeline.instr(core, pc, _instrs);
    TMI_ASSERT(info.isStore == is_write,
               "instruction kind does not match access");
    ++_statMemOps;

    // Static layout repair: redirect through the plan's segment table
    // before translation, so TLBs, frame caches, coherence state and
    // detection all key on the repaired layout. One branch when empty.
    Cycles lat = 0;
    if (!_layout.empty()) {
        bool hit = false;
        Addr nva = _layout.redirect(va, hit);
        if (hit) {
            va = nva;
            lat = _config.staticRedirectCost;
        }
    }

    ProcessId pid = _threadProcess[tid];
    if (_pipeline.stale())
        revalidatePipeline();

    // LASER-style interception: the runtime services the access from
    // its software store buffer, with no coherence traffic. While the
    // snapshot says nothing is armed, the call would return false
    // with no side effects, so it is skipped outright.
    Cycles intercept_cost = 0;
    if (_pipeline.interceptArmed() && _hooks &&
        _hooks->interceptAccess(tid, va, is_write, intercept_cost)) {
        _sched.advance(lat + _tlbs[core].lookup(va) + intercept_cost);
        return {sharedPaddr(pid, va), info.width};
    }

    if (!bypass_private && _pipeline.bypassPrivate(tid))
        bypass_private = true;

    Addr paddr;
    if (bypass_private) {
        paddr = sharedPaddr(pid, va);
    } else {
        VPage vpage = va >> _mmu.pageShift();
        Addr page_mask = _mmu.pageBytes() - 1;
        Addr frame_base;
        if (_pipeline.frameLookup(core, pid, vpage, frame_base)) {
            paddr = frame_base | (va & page_mask);
        } else {
            TranslateResult tr = _mmu.translate(pid, va, is_write);
            paddr = tr.paddr;
            if (tr.softFault)
                lat += faultCost();
            lat += tr.extraCost;
            if (tr.cacheable) {
                _pipeline.frameInsert(core, pid, vpage,
                                      tr.paddr & ~page_mask);
            }
        }
    }

    // Start pulling the simulated bytes into the host cache; the TLB
    // model and CacheSim below run while the load is in flight. Null
    // (an untouched frame) is a harmless prefetch target.
    __builtin_prefetch(_mmu.phys().hostAddrIfTouched(paddr));

    // The simulated TLB must run before anything that can rewind the
    // fiber: txnPreAccess's self-abort restores the txn's checkpoint,
    // and the lookup it already made must stay made.
    lat += _tlbs[core].lookup(va);

    // Transactional conflict detection (lock elision). One counter
    // test when no txn is live anywhere, so elision-off runs charge
    // and trace exactly as before this path existed.
    if (_activeTxns != 0)
        txnPreAccess(tid, va, is_write);

    AccessContext ctx;
    ctx.core = core;
    ctx.tid = tid;
    ctx.paddr = paddr;
    ctx.vaddr = va;
    ctx.pc = pc;
    ctx.width = info.width;
    ctx.isWrite = is_write;
    AccessResult res = _cache.access(ctx);

    if (_activeTxns != 0)
        txnPostAccess(tid, res.hitm);

    if (_config.instrumentationSampling) {
        // Predator-style instrumentation: every access pays the tax;
        // every Nth is reported to the sampler.
        lat += _config.instrumentationCost;
        if (++_accessSampleCounter >=
            _config.instrumentationSampling) {
            _accessSampleCounter = 0;
            if (_accessSampler)
                _accessSampler(ctx);
        }
    }

    std::uint64_t xlate_epoch = _pipeline.epoch().value();
    _sched.advance(lat + res.latency);
    if (!bypass_private && _pipeline.epoch().value() != xlate_epoch) {
        // The advance yielded, and some other fiber changed a mapping
        // meanwhile -- e.g. a watchdog force-commit dropped the
        // private frame this paddr points into, which the caller is
        // about to read or write. Functionally the access completes
        // now, so re-resolve against the live page tables; its
        // timing was already charged above, and any fresh divergence
        // cost is forgiven (the pathological-commit corner is not a
        // place to model twin costs precisely).
        paddr = _mmu.translate(pid, va, is_write).paddr;
    }
    return {paddr, info.width};
}

std::uint64_t
Machine::memOp(ThreadId tid, Addr pc, Addr va, bool is_write,
               std::uint64_t store_value, bool bypass_private)
{
    auto [paddr, width] =
        accessPath(tid, pc, va, is_write, bypass_private);
    if (is_write) {
        if (_activeTxns != 0)
            txnTrackWrite(tid, paddr, width);
        writePhys(paddr, store_value, width);
        return 0;
    }
    return readPhys(paddr, width);
}

void
Machine::memOpStream(ThreadId tid, Addr pc, Addr va,
                     std::uint64_t count, Addr stride,
                     std::uint64_t value, std::uint64_t value_step)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        auto [paddr, width] = accessPath(tid, pc, va, true, false);
        if (_activeTxns != 0)
            txnTrackWrite(tid, paddr, width);
        writePhys(paddr, value, width);
        va += stride;
        value += value_step;
    }
}

void
Machine::bulkWrite(ThreadId tid, Addr va, const void *buf,
                   std::size_t size)
{
    // Bulk traffic bypasses the per-access path, so a txn could
    // neither track nor roll it back: treat it as a capacity abort.
    txnAbortIfActive(tid, TxnAbortReason::Capacity);
    ProcessId pid = _threadProcess[tid];
    const auto *in = static_cast<const std::uint8_t *>(buf);
    std::uint64_t page_bytes = _mmu.pageBytes();
    while (size > 0) {
        // Clamp the chunk to the current constant-shift layout run,
        // then redirect; a span straddling a segment boundary would
        // otherwise copy to the wrong placement.
        std::uint64_t run = size;
        Addr eff = va;
        if (!_layout.empty()) {
            std::int64_t shift = 0;
            run = _layout.span(va, size, shift);
            eff = static_cast<Addr>(
                static_cast<std::int64_t>(va) + shift);
        }
        Addr off = eff & (page_bytes - 1);
        std::size_t chunk =
            std::min<std::size_t>(run, page_bytes - off);
        TranslateResult tr = _mmu.translate(pid, eff, true);
        Cycles lat = tr.extraCost + (tr.softFault ? faultCost() : 0);
        lat += 2 * (chunk / lineBytes + 1);
        _mmu.phys().write(tr.paddr, in, chunk);
        _statBulkBytes += static_cast<double>(chunk);
        _sched.advance(lat);
        in += chunk;
        va += chunk;
        size -= chunk;
    }
}

void
Machine::bulkFill(ThreadId tid, Addr va, std::uint8_t byte,
                  std::size_t size)
{
    if (_bulkScratch.size() <= tid)
        _bulkScratch.resize(tid + 1);
    std::vector<std::uint8_t> &chunk = _bulkScratch[tid];
    std::size_t want = std::min<std::size_t>(size, smallPageBytes);
    if (chunk.size() < want)
        chunk.resize(want);
    std::memset(chunk.data(), byte, want);
    // Hold the heap buffer, not the vector: a concurrent bulkFill by
    // a later tid can resize _bulkScratch across bulkWrite's yields,
    // moving the inner vector objects (their buffers stay put).
    const std::uint8_t *data = chunk.data();
    while (size > 0) {
        std::size_t n = std::min(size, want);
        bulkWrite(tid, va, data, n);
        va += n;
        size -= n;
    }
}

void
Machine::bulkRead(ThreadId tid, Addr va, void *buf, std::size_t size)
{
    // Untracked reads would escape conflict detection (see bulkWrite).
    txnAbortIfActive(tid, TxnAbortReason::Capacity);
    ProcessId pid = _threadProcess[tid];
    auto *out = static_cast<std::uint8_t *>(buf);
    std::uint64_t page_bytes = _mmu.pageBytes();
    while (size > 0) {
        std::uint64_t run = size;
        Addr eff = va;
        if (!_layout.empty()) {
            std::int64_t shift = 0;
            run = _layout.span(va, size, shift);
            eff = static_cast<Addr>(
                static_cast<std::int64_t>(va) + shift);
        }
        Addr off = eff & (page_bytes - 1);
        std::size_t chunk =
            std::min<std::size_t>(run, page_bytes - off);
        TranslateResult tr = _mmu.translate(pid, eff, false);
        Cycles lat = tr.softFault ? faultCost() : 0;
        lat += 2 * (chunk / lineBytes + 1);
        _mmu.phys().read(tr.paddr, out, chunk);
        _sched.advance(lat);
        out += chunk;
        va += chunk;
        size -= chunk;
    }
}

std::uint64_t
Machine::peek(Addr va, unsigned width) const
{
    if (!_layout.empty()) {
        bool hit = false;
        va = _layout.redirect(va, hit);
    }
    Addr paddr = 0;
    bool ok = _mmu.translatePeek(0, va, paddr);
    TMI_ASSERT(ok, "peek of unmapped address");
    return readPhys(paddr, width);
}

std::uint64_t
Machine::peekShared(Addr va, unsigned width) const
{
    if (!_layout.empty()) {
        bool hit = false;
        va = _layout.redirect(va, hit);
    }
    return readPhys(sharedPaddr(0, va), width);
}

void
Machine::flushTlbs()
{
    for (auto &tlb : _tlbs)
        tlb.flush();
    // Callers flush because a mapping changed; kill the software
    // translation cache too even if the mutation site forgot.
    _pipeline.epoch().bump();
}

// ---------------------------------------------------------------------
// Atomics

std::uint64_t
Machine::atomicLoad(ThreadId tid, Addr pc, Addr va, MemOrder order)
{
    if (_hooks)
        _hooks->onAtomicOp(tid, order, false);
    ++_statAtomicOps;
    if (_pipeline.stale())
        revalidatePipeline();
    return memOp(tid, pc, va, false, 0, _pipeline.atomicsBypass());
}

void
Machine::atomicStore(ThreadId tid, Addr pc, Addr va, std::uint64_t v,
                     MemOrder order)
{
    if (_hooks)
        _hooks->onAtomicOp(tid, order, false);
    ++_statAtomicOps;
    if (_pipeline.stale())
        revalidatePipeline();
    memOp(tid, pc, va, true, v, _pipeline.atomicsBypass());
}

std::uint64_t
Machine::atomicFetchAdd(ThreadId tid, Addr pc, Addr va,
                        std::uint64_t delta, MemOrder order)
{
    if (_hooks)
        _hooks->onAtomicOp(tid, order, true);
    ++_statAtomicOps;
    if (_pipeline.stale())
        revalidatePipeline();
    // Charge one RFO write access; then perform the whole
    // read-modify-write on the resolved frame without yielding, so
    // the operation is indivisible.
    auto [paddr, width] =
        accessPath(tid, pc, va, true, _pipeline.atomicsBypass());
    std::uint64_t old = readPhys(paddr, width);
    if (_activeTxns != 0)
        txnTrackWrite(tid, paddr, width);
    writePhys(paddr, old + delta, width);
    return old;
}

bool
Machine::atomicCas(ThreadId tid, Addr pc, Addr va, std::uint64_t expect,
                   std::uint64_t desired, MemOrder order)
{
    if (_hooks)
        _hooks->onAtomicOp(tid, order, true);
    ++_statAtomicOps;
    if (_pipeline.stale())
        revalidatePipeline();
    auto [paddr, width] =
        accessPath(tid, pc, va, true, _pipeline.atomicsBypass());
    std::uint64_t old = readPhys(paddr, width);
    if (old != expect)
        return false;
    if (_activeTxns != 0)
        txnTrackWrite(tid, paddr, width);
    writePhys(paddr, desired, width);
    return true;
}

// ---------------------------------------------------------------------
// Regions

void
Machine::regionEnter(ThreadId tid, RegionKind kind)
{
    _sched.advance(_config.regionCallbackCost);
    if (_hooks) {
        _hooks->onRegionEnter(tid, kind);
        // Region transitions are the only frequent event that can
        // change bypassPrivate's answer; push the new value instead
        // of churning the epoch.
        _pipeline.setBypassPrivate(tid, _hooks->bypassPrivate(tid));
    }
}

void
Machine::regionExit(ThreadId tid)
{
    _sched.advance(_config.regionCallbackCost);
    if (_hooks) {
        _hooks->onRegionExit(tid);
        _pipeline.setBypassPrivate(tid, _hooks->bypassPrivate(tid));
    }
}

// ---------------------------------------------------------------------
// Bounded transactions (lock elision)

const char *
txnAbortReasonName(TxnAbortReason reason)
{
    switch (reason) {
      case TxnAbortReason::None:
        return "none";
      case TxnAbortReason::Conflict:
        return "conflict";
      case TxnAbortReason::RemoteConflict:
        return "remote-conflict";
      case TxnAbortReason::Capacity:
        return "capacity";
      case TxnAbortReason::Spurious:
        return "spurious";
      case TxnAbortReason::Nested:
        return "nested";
    }
    return "?";
}

bool
Machine::txnBegin(ThreadId tid, unsigned read_lines,
                  unsigned write_lines)
{
    TMI_ASSERT(_sched.current() && _sched.current()->tid() == tid,
               "txnBegin outside its own simulated thread");
    if (_txns.size() <= tid)
        _txns.resize(tid + 1);
    TMI_ASSERT(!_txns[tid].active, "nested txnBegin");
    // The latch lives in THIS frame, so it is part of the snapshot: a
    // rollback restores it while the heap-resident counter keeps its
    // bump, which is how an abort arrival is recognized.
    std::uint64_t before = _txns[tid].ck.resumes;
    _sched.checkpointCurrent(_txns[tid].ck);
    TxnState &tx = _txns[tid]; // re-resolve: rollbacks arrive late
    if (tx.ck.resumes != before)
        return false; // aborted; reason in lastAbort
    tx.active = true;
    tx.readCap = read_lines;
    tx.writeCap = write_lines;
    tx.readLines.clear();
    tx.writeLines.clear();
    tx.readCount = 0;
    tx.writeCount = 0;
    tx.undo.clear();
    tx.conflictObserved = false;
    ++_activeTxns;
    return true;
}

void
Machine::txnCommit(ThreadId tid)
{
    TMI_ASSERT(tid < _txns.size() && _txns[tid].active,
               "txnCommit outside a txn");
    TxnState &tx = _txns[tid];
    tx.active = false;
    tx.lastAbort = TxnAbortReason::None;
    tx.undo.clear();
    TMI_ASSERT(_activeTxns > 0);
    --_activeTxns;
    ++_statTxnCommits;
}

void
Machine::txnMarkAborted(TxnState &tx, TxnAbortReason why)
{
    txnRollbackMemory(tx);
    tx.active = false;
    tx.lastAbort = why;
    TMI_ASSERT(_activeTxns > 0);
    --_activeTxns;
    ++_statTxnAborts;
}

void
Machine::txnAbortSelf(ThreadId tid, TxnAbortReason why)
{
    TMI_ASSERT(tid < _txns.size() && _txns[tid].active,
               "txnAbortSelf outside a txn");
    TxnState &tx = _txns[tid];
    txnMarkAborted(tx, why);
    _sched.restoreCurrent(tx.ck);
}

void
Machine::txnRollbackMemory(TxnState &tx)
{
    // Reverse order, so overlapping writes restore the oldest bytes.
    for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it)
        writePhys(it->paddr, it->old, it->width);
    // Speculative stores left lines Modified in the aborting core's
    // cache; drop them so no later access takes a HITM (or a dirty
    // forward) from state that never architecturally existed.
    for (const TxnState::Undo &u : tx.undo)
        _cache.invalidateLine(u.paddr);
    tx.undo.clear();
}

bool
Machine::txnActive(ThreadId tid) const
{
    return tid < _txns.size() && _txns[tid].active;
}

TxnAbortReason
Machine::txnAbortReason(ThreadId tid) const
{
    return tid < _txns.size() ? _txns[tid].lastAbort
                              : TxnAbortReason::None;
}

bool
Machine::txnConflictObserved(ThreadId tid) const
{
    return tid < _txns.size() && _txns[tid].conflictObserved;
}

void
Machine::txnAbortIfActive(ThreadId tid, TxnAbortReason why)
{
    if (_activeTxns != 0 && tid < _txns.size() && _txns[tid].active)
        txnAbortSelf(tid, why);
}

void
Machine::txnPreAccess(ThreadId tid, Addr va, bool is_write)
{
    Addr line = va >> lineShift;
    // Requester wins: any other txn holding this line in a
    // conflicting set is aborted *now*, so its undo restore lands
    // before this access reads or overwrites the data. The same rule
    // makes non-speculative accesses always defeat speculation.
    for (std::size_t victim = 0; victim < _txns.size(); ++victim) {
        if (victim == tid)
            continue;
        TxnState &vx = _txns[victim];
        if (!vx.active)
            continue;
        bool conflict =
            std::find(vx.writeLines.begin(), vx.writeLines.end(),
                      line) != vx.writeLines.end();
        if (!conflict && is_write) {
            conflict = std::find(vx.readLines.begin(),
                                 vx.readLines.end(),
                                 line) != vx.readLines.end();
        }
        if (conflict) {
            txnMarkAborted(vx, TxnAbortReason::RemoteConflict);
            _sched.hijackThread(static_cast<ThreadId>(victim), vx.ck);
        }
    }

    if (tid >= _txns.size() || !_txns[tid].active)
        return;
    TxnState &tx = _txns[tid];
    if (_faults.enabled() &&
        _faults.shouldFail(faultpoint::htmSpuriousAbort))
        txnAbortSelf(tid, TxnAbortReason::Spurious);
    // Capacity accounting. htm.capacity_misaccount books the line
    // twice, modeling the set-estimation errata real HTM ships with:
    // the txn aborts earlier than its true footprint warrants.
    unsigned weight = 1;
    if (_faults.enabled() &&
        _faults.shouldFail(faultpoint::htmCapacityMisaccount))
        weight = 2;
    std::vector<Addr> &lines = is_write ? tx.writeLines : tx.readLines;
    unsigned &count = is_write ? tx.writeCount : tx.readCount;
    unsigned cap = is_write ? tx.writeCap : tx.readCap;
    if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
        lines.push_back(line);
        count += weight;
    }
    if (count > cap)
        txnAbortSelf(tid, TxnAbortReason::Capacity);
}

void
Machine::txnPostAccess(ThreadId tid, bool hitm)
{
    if (!hitm || tid >= _txns.size() || !_txns[tid].active)
        return;
    // A remote-Modified hit inside a txn IS the conflict signal.
    // Record the observation before aborting so the commit-time
    // oracle can catch any path that forgets to abort.
    _txns[tid].conflictObserved = true;
    txnAbortSelf(tid, TxnAbortReason::Conflict);
}

void
Machine::txnTrackWrite(ThreadId tid, Addr paddr, unsigned width)
{
    if (tid >= _txns.size() || !_txns[tid].active)
        return;
    TxnState &tx = _txns[tid];
    tx.undo.push_back({paddr, readPhys(paddr, width), width});
}

// ---------------------------------------------------------------------
// Synchronization

Addr
Machine::syncAddr(ThreadId tid, Addr va)
{
    auto it = _syncRedirect.find(va);
    TMI_ASSERT(it != _syncRedirect.end(),
               "sync object used before init");
    if (it->second != va) {
        // Follow the indirection Tmi installed: one pointer load.
        memOp(tid, _pcPtrLoad, va, false, 0, true);
    }
    return it->second;
}

void
Machine::mutexInit(ThreadId tid, Addr va)
{
    Addr caddr = _hooks ? _hooks->onSyncObjectInit(tid, va) : va;
    _syncRedirect[va] = caddr;
    if (caddr != va)
        memOp(tid, _pcPtrStore, va, true, caddr >> lineShift, true);
    _sync.mutexInit(caddr);
}

void
Machine::mutexLock(ThreadId tid, Addr va)
{
    Addr caddr = syncAddr(tid, va);
    // Lock elision: the runtime may open a speculative region instead
    // of acquiring. The lock word is then only *read* (the runtime
    // subscribes it to the txn), so a real acquirer's CAS aborts the
    // speculation through the normal conflict path.
    if (_hooks && _hooks->onMutexLock(tid, caddr))
        return;
    // A real acquisition inside a txn -- a nested lock the runtime
    // declined to elide -- may block; it cannot stay speculative.
    txnAbortIfActive(tid, TxnAbortReason::Nested);
    memOp(tid, _pcLockCas, caddr, true, 1, true);
    _sync.mutexLock(caddr);
    if (_hooks)
        _hooks->onSyncAcquire(tid);
}

bool
Machine::mutexTryLock(ThreadId tid, Addr va)
{
    Addr caddr = syncAddr(tid, va);
    // Trylock is never elided: its return value must reflect the real
    // lock word, which a speculative region cannot promise.
    txnAbortIfActive(tid, TxnAbortReason::Nested);
    memOp(tid, _pcLockCas, caddr, true, 1, true);
    bool got = _sync.mutexTryLock(caddr);
    if (got && _hooks)
        _hooks->onSyncAcquire(tid);
    return got;
}

void
Machine::mutexUnlock(ThreadId tid, Addr va)
{
    Addr caddr = syncAddr(tid, va);
    // Elided unlock: the speculative region commits here -- no
    // lock-word store, no SyncManager release.
    if (_hooks && _hooks->onMutexUnlock(tid, caddr))
        return;
    if (_hooks)
        _hooks->onSyncRelease(tid);
    memOp(tid, _pcLockStore, caddr, true, 0, true);
    _sync.mutexUnlock(caddr);
}

void
Machine::barrierInit(ThreadId tid, Addr va, unsigned parties)
{
    Addr caddr = _hooks ? _hooks->onSyncObjectInit(tid, va) : va;
    _syncRedirect[va] = caddr;
    if (caddr != va)
        memOp(tid, _pcPtrStore, va, true, caddr >> lineShift, true);
    _sync.barrierInit(caddr, parties);
}

void
Machine::barrierWait(ThreadId tid, Addr va)
{
    Addr caddr = syncAddr(tid, va);
    txnAbortIfActive(tid, TxnAbortReason::Nested);
    if (_hooks)
        _hooks->onSyncRelease(tid);
    memOp(tid, _pcLockCas, caddr, true, 1, true);
    _sync.barrierWait(caddr);
    if (_hooks)
        _hooks->onSyncAcquire(tid);
}

void
Machine::condInit(ThreadId tid, Addr va)
{
    Addr caddr = _hooks ? _hooks->onSyncObjectInit(tid, va) : va;
    _syncRedirect[va] = caddr;
    if (caddr != va)
        memOp(tid, _pcPtrStore, va, true, caddr >> lineShift, true);
    _sync.condInit(caddr);
}

void
Machine::condWait(ThreadId tid, Addr va, Addr mutex_va)
{
    Addr caddr = syncAddr(tid, va);
    Addr cmutex = syncAddr(tid, mutex_va);
    txnAbortIfActive(tid, TxnAbortReason::Nested);
    if (_hooks)
        _hooks->onSyncRelease(tid);
    memOp(tid, _pcLockCas, caddr, true, 1, true);
    _sync.condWait(caddr, cmutex);
    if (_hooks)
        _hooks->onSyncAcquire(tid);
}

void
Machine::condSignal(ThreadId tid, Addr va)
{
    Addr caddr = syncAddr(tid, va);
    txnAbortIfActive(tid, TxnAbortReason::Nested);
    memOp(tid, _pcLockStore, caddr, true, 0, true);
    _sync.condSignal(caddr);
}

void
Machine::condBroadcast(ThreadId tid, Addr va)
{
    Addr caddr = syncAddr(tid, va);
    txnAbortIfActive(tid, TxnAbortReason::Nested);
    memOp(tid, _pcLockStore, caddr, true, 0, true);
    _sync.condBroadcast(caddr);
}

// ---------------------------------------------------------------------
// Stats

void
Machine::regStats(stats::StatGroup &group)
{
    group.addScalar("memOps", &_statMemOps, "simulated data accesses");
    group.addScalar("atomicOps", &_statAtomicOps,
                    "simulated atomic operations");
    group.addScalar("bulkBytes", &_statBulkBytes,
                    "bytes moved by bulk operations");
    group.addScalar("txnCommits", &_statTxnCommits,
                    "speculative regions committed");
    group.addScalar("txnAborts", &_statTxnAborts,
                    "speculative regions aborted");
    _mmu.regStats(group);
    _cache.regStats(group);
    _sched.regStats(group);
    _sync.regStats(group);
    _perf.regStats(group);
    _faults.regStats(group);
    _alloc->allocStats().regStats(group);
    for (auto &tlb : _tlbs)
        tlb.regStats(group);
}

} // namespace tmi
