#include "layers.hh"

#include <algorithm>
#include <memory>

#include "cache/cache_sim.hh"
#include "cache/tlb.hh"
#include "common/logging.hh"
#include "core/access_path.hh"
#include "detect/detector.hh"
#include "mem/mmu.hh"
#include "perf/pebs.hh"
#include "ptsb/ptsb.hh"
#include "sched/scheduler.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace tmi;

namespace
{

/** Calls per span: large enough that the two clock reads vanish,
 *  small enough that a preempted batch is one outlier among many. */
constexpr std::size_t batchCalls = 4096;

/** Calls fed to a layer the workload leaves idle, so its per-call cost
 *  is still measured (the count metrics show it does no work). */
constexpr std::size_t idleProbeCalls = 4096;

/** Results are folded in here so the replayed calls stay live. */
volatile std::uint64_t resultSink = 0;

/** One captured access and the address space it ran in. */
struct Captured
{
    AccessContext ctx;
    ProcessId pid = 0;
};

/** CacheSim's L1-hit count, which it exposes only through its stats. */
std::uint64_t
l1Hits(CacheSim &cache)
{
    stats::StatGroup group("cache");
    cache.regStats(group);
    double hits = 0;
    group.lookupScalar("l1Hits", hits);
    return static_cast<std::uint64_t>(hits);
}

/** Run @p body(i) for i in [0, n), one span per batch of calls. */
template <typename Body>
void
timedBatches(SpanLog &log, const char *layer, std::uint64_t job,
             std::size_t n, Body &&body)
{
    std::uint64_t acc = 0;
    for (std::size_t begin = 0; begin < n; begin += batchCalls) {
        std::size_t end = std::min(n, begin + batchCalls);
        std::uint64_t t0 = log.now();
        std::uint64_t c0 = SpanLog::cpuNow();
        for (std::size_t i = begin; i < end; ++i)
            acc += body(i);
        std::uint64_t busy = SpanLog::cpuNow() - c0;
        log.add(layer, job, t0, log.now(), busy, end - begin);
    }
    resultSink = resultSink + acc;
}

/** A pthreads cell rebuilt through the public API the way
 *  runExperiment builds it. Instrumented, every access reaches the
 *  AccessSampler at zero simulated cost, so the sampler sees the job's
 *  exact access stream. */
struct Harness
{
    static MachineConfig
    machineConfig(const Config &full, bool instrumented)
    {
        const ExperimentConfig &run = full.run;
        if (run.treatment != Treatment::Pthreads ||
            run.placement != PlacementPolicy::Default ||
            !run.faults.empty()) {
            fatal("perfbench: the capture harness rebuilds plain "
                  "pthreads cells only");
        }
        MachineConfig mc = full.machine;
        mc.cores = run.threads;
        mc.pageShift = run.pageShift;
        mc.allocator = run.allocator;
        mc.perf.period = run.perfPeriod;
        mc.seed = run.seed;
        mc.shmBackedHeap = false;
        mc.tmiModifiedAllocator = false;
        mc.faultSeed = run.faultSeed;
        mc.trace = run.trace;
        mc.instrumentationSampling = instrumented ? 1 : 0;
        mc.instrumentationCost = 0;
        return mc;
    }

    Harness(const Config &config, bool instrumented)
        : machine(machineConfig(config, instrumented)),
          info(findWorkload(config.run.workload)),
          budget(config.run.budget)
    {
        WorkloadParams params;
        params.threads = config.run.threads;
        params.scale = config.run.scale;
        params.seed = config.run.seed;
        std::string perr;
        if (!resolveParams(info.schema, config.run.params, params.extra,
                           perr)) {
            fatal("perfbench: bad workload params: %s", perr.c_str());
        }
        workload = info.make(params);
        workload->init(machine);
    }

    /** Run to completion; true when it completed and validated. */
    bool
    run()
    {
        Workload *wl = workload.get();
        machine.spawnThread(info.name + "-main",
                            [wl](ThreadApi &api) { wl->main(api); });
        return machine.sched().run(budget) == RunOutcome::Completed &&
               workload->validate(machine);
    }

    Machine machine;
    const WorkloadInfo &info;
    Cycles budget;
    std::unique_ptr<Workload> workload;
};

} // namespace

JobTrace
traceJob(const Config &config, std::uint64_t job, SpanLog &log)
{
    JobTrace out;

    // The same cell uninstrumented: the tracing-overhead baseline.
    {
        std::uint64_t c0 = SpanLog::cpuNow();
        Harness plain(config, false);
        plain.run();
        out.plainCpuNs = SpanLog::cpuNow() - c0;
    }

    std::uint64_t c0 = SpanLog::cpuNow();
    Harness harness(config, true);
    Machine &machine = harness.machine;

    // The run's own counts at the prefix end, for the replay
    // self-check.
    auto live_counts = [&] {
        out.liveL1Hits = l1Hits(machine.cache());
        out.liveHitm = machine.cache().hitmEvents();
    };

    std::vector<Captured> stream;
    stream.reserve(capturePrefix);
    machine.setAccessSampler([&](const AccessContext &ctx) {
        if (stream.size() >= capturePrefix)
            return;
        stream.push_back({ctx, machine.processOf(ctx.tid)});
        if (stream.size() == capturePrefix)
            live_counts();
    });

    out.valid = harness.run();
    out.cycles = machine.elapsed();
    out.hitmEvents = machine.cache().hitmEvents();
    out.memOps = machine.memOpCount();
    out.cpuNs = SpanLog::cpuNow() - c0;
    machine.setAccessSampler(nullptr);
    if (stream.size() < capturePrefix)
        live_counts();
    out.captured = stream.size();
    const std::size_t n = stream.size();

    // CacheSim: a fresh hierarchy of the run's geometry.
    CacheSim cache(machine.cache().config());
    std::vector<std::uint8_t> hitm(n, 0);
    timedBatches(log, "cache.access", job, n, [&](std::size_t i) {
        AccessResult r = cache.access(stream[i].ctx);
        hitm[i] = r.hitm;
        return static_cast<std::uint64_t>(r.l1Hit);
    });
    out.replayL1Hits = l1Hits(cache);
    out.replayHitm = cache.hitmEvents();

    // Tlb: one per core, as the machine keeps them.
    std::vector<Tlb> tlbs;
    for (unsigned c = 0; c < machine.config().cores; ++c)
        tlbs.emplace_back(machine.config().tlb, machine.config().pageShift);
    timedBatches(log, "cache.tlb_lookup", job, n, [&](std::size_t i) {
        const AccessContext &ctx = stream[i].ctx;
        return tlbs[ctx.core].lookup(ctx.vaddr);
    });

    // AccessPipeline: PC cache + frame cache; a miss installs the
    // captured frame, and Mmu::translate is charged separately below.
    AccessPipeline pipe(machine.config().cores);
    const unsigned page_shift = machine.mmu().pageShift();
    const Addr page_mask = machine.mmu().pageBytes() - 1;
    std::vector<std::uint32_t> misses;
    misses.reserve(n / 8);
    timedBatches(log, "core.pipeline", job, n, [&](std::size_t i) {
        const Captured &a = stream[i];
        AccessPipeline::CachedInstr ins =
            pipe.instr(a.ctx.core, a.ctx.pc, machine.instructions());
        VPage vpage = a.ctx.vaddr >> page_shift;
        Addr base = 0;
        if (!pipe.frameLookup(a.ctx.core, a.pid, vpage, base)) {
            pipe.frameInsert(a.ctx.core, a.pid, vpage,
                             a.ctx.paddr & ~page_mask);
            misses.push_back(static_cast<std::uint32_t>(i));
        }
        return static_cast<std::uint64_t>(ins.width) + base;
    });
    out.frameMisses = misses.size();

    // Mmu::translate against the finished run's page tables.
    timedBatches(log, "mem.translate", job, misses.size(),
                 [&](std::size_t k) {
                     const Captured &a = stream[misses[k]];
                     return machine.mmu()
                         .translate(a.pid, a.ctx.vaddr, a.ctx.isWrite)
                         .paddr;
                 });

    // PhysicalMemory: the data movement of each access. The run is
    // finished and validated, so stores may clobber its memory.
    PhysicalMemory &phys = machine.mmu().phys();
    timedBatches(log, "mem.phys_rw", job, n, [&](std::size_t i) {
        const AccessContext &ctx = stream[i].ctx;
        std::uint8_t buf[8] = {};
        if (ctx.isWrite)
            phys.write(ctx.paddr, buf, ctx.width);
        else
            phys.read(ctx.paddr, buf, ctx.width);
        return static_cast<std::uint64_t>(buf[0]);
    });

    // PerfSession: the replay's HITM subset.
    std::vector<std::uint32_t> hitm_idx;
    for (std::size_t i = 0; i < n; ++i) {
        if (hitm[i])
            hitm_idx.push_back(static_cast<std::uint32_t>(i));
    }
    if (hitm_idx.empty()) {
        for (std::size_t i = 0; i < std::min(n, idleProbeCalls); ++i)
            hitm_idx.push_back(static_cast<std::uint32_t>(i));
    }
    PerfSession perf(machine.config().perf);
    for (ThreadId tid : machine.appThreads())
        perf.attachThread(tid);
    timedBatches(log, "perf.on_hitm", job, hitm_idx.size(),
                 [&](std::size_t k) {
                     return perf.onHitm(stream[hitm_idx[k]].ctx, k);
                 });
    std::vector<PebsRecord> records;
    perf.drainAll(records);
    if (records.empty()) {
        for (std::size_t i = 0; i < std::min(n, idleProbeCalls); ++i) {
            const AccessContext &ctx = stream[i].ctx;
            PebsRecord rec;
            rec.vaddr = ctx.vaddr;
            rec.pc = ctx.pc;
            rec.tid = ctx.tid;
            rec.core = ctx.core;
            rec.time = i;
            records.push_back(rec);
        }
    }

    // Detector: classify what the replay emitted.
    Detector det(machine.instructions(), machine.addressMap(),
                 config.tmi.detector);
    timedBatches(log, "detect.consume", job, records.size(),
                 [&](std::size_t k) { return det.consume(records[k]); });
    return out;
}

void
replayScheduler(SpanLog &log, unsigned batches)
{
    constexpr int rounds = 2000;
    for (unsigned b = 0; b < batches; ++b) {
        // Quantum 1: every advance hands the core to the other fiber.
        SimScheduler sched(1);
        for (int t = 0; t < 2; ++t) {
            sched.spawn("pingpong", [&sched] {
                for (int i = 0; i < rounds; ++i)
                    sched.advance(10);
            });
        }
        std::uint64_t t0 = log.now();
        std::uint64_t c0 = SpanLog::cpuNow();
        sched.run();
        std::uint64_t busy = SpanLog::cpuNow() - c0;
        log.add("sched.switch", 0, t0, log.now(), busy,
                sched.contextSwitches());
    }
}

void
replayPtsbCommit(SpanLog &log, std::uint64_t bytes, unsigned commits)
{
    Mmu mmu(smallPageShift);
    ShmRegion region("perfbench", mmu.phys());
    region.grow(1);
    ProcessId pid = mmu.createAddressSpace();
    constexpr Addr base = 0x10000000;
    mmu.mapShared(pid, base, region, 0, 1);
    Ptsb ptsb(mmu, pid);
    mmu.setCowCallback([&](ProcessId, VPage vpage, PPage shared,
                           PPage priv) -> CowOutcome {
        return ptsb.onCowFault(vpage, shared, priv);
    });
    ptsb.protectPage(base >> smallPageShift);

    bytes = std::clamp<std::uint64_t>(bytes, 1, smallPageBytes);
    std::vector<std::uint8_t> data(bytes);
    for (unsigned begin = 0; begin < commits; begin += 256) {
        unsigned end = std::min(commits, begin + 256);
        std::uint64_t busy = 0;
        std::uint64_t t0 = log.now();
        for (unsigned c = begin; c < end; ++c) {
            // A fresh value every commit, so every byte differs from
            // the twin and the diff merges exactly @p bytes.
            std::fill(data.begin(), data.end(),
                      static_cast<std::uint8_t>(c + 1));
            Addr off = (c * bytes) % (smallPageBytes - bytes + 1);
            mmu.write(pid, base + off, data.data(), bytes);
            std::uint64_t c0 = SpanLog::cpuNow();
            CommitResult r = ptsb.commit();
            busy += SpanLog::cpuNow() - c0;
            resultSink = resultSink + r.bytesChanged;
        }
        log.add("ptsb.commit", 0, t0, log.now(), busy, end - begin);
    }
}

} // namespace perfbench
