#include "experiment.hh"

#include <functional>
#include <sstream>

#include "baselines/htm.hh"
#include "baselines/laser.hh"
#include "baselines/sheriff.hh"
#include "core/config.hh"
#include "core/csv.hh"
#include "runtime/tmi_runtime.hh"
#include "staticrepair/applier.hh"
#include "staticrepair/planner.hh"
#include "staticrepair/profiler.hh"
#include "workloads/workload.hh"

namespace tmi
{

const char *
treatmentName(Treatment t)
{
    switch (t) {
      case Treatment::Pthreads:
        return "pthreads";
      case Treatment::Manual:
        return "manual";
      case Treatment::TmiAlloc:
        return "tmi-alloc";
      case Treatment::TmiDetect:
        return "tmi-detect";
      case Treatment::TmiProtect:
        return "tmi-protect";
      case Treatment::TmiProtectNoCcc:
        return "tmi-protect-no-ccc";
      case Treatment::PtsbEverywhere:
        return "ptsb-everywhere";
      case Treatment::SheriffDetect:
        return "sheriff-detect";
      case Treatment::SheriffProtect:
        return "sheriff-protect";
      case Treatment::Laser:
        return "laser";
      case Treatment::HuronStatic:
        return "huron-static";
      case Treatment::HtmElide:
        return "htm-elide";
    }
    return "?";
}

const char *
treatmentDescription(Treatment t)
{
    switch (t) {
      case Treatment::Pthreads:
        return "plain execution, stock allocator (baseline)";
      case Treatment::Manual:
        return "source-level fix: hand padding/alignment";
      case Treatment::TmiAlloc:
        return "TMI's process-shared allocator only";
      case Treatment::TmiDetect:
        return "TMI allocator + HITM sampling and detection thread";
      case Treatment::TmiProtect:
        return "full TMI: detection + online page privatization";
      case Treatment::TmiProtectNoCcc:
        return "ablation: PTSB everywhere with CCC off (Fig. 11/12)";
      case Treatment::PtsbEverywhere:
        return "ablation: repair protects the whole heap";
      case Treatment::SheriffDetect:
        return "Sheriff detection tool (prior work)";
      case Treatment::SheriffProtect:
        return "Sheriff repair tool (buffers atomics too)";
      case Treatment::Laser:
        return "LASER detection + software store-buffer repair";
      case Treatment::HuronStatic:
        return "Huron-style offline repair: profile, plan layout, "
               "replay with apply-at-alloc";
      case Treatment::HtmElide:
        return "HTM lock elision: bounded txns with retry/fallback "
               "and an abort-storm watchdog";
    }
    return "?";
}

const std::vector<Treatment> &
allTreatments()
{
    static const std::vector<Treatment> all = {
        Treatment::Pthreads,        Treatment::Manual,
        Treatment::TmiAlloc,        Treatment::TmiDetect,
        Treatment::TmiProtect,      Treatment::TmiProtectNoCcc,
        Treatment::PtsbEverywhere,  Treatment::SheriffDetect,
        Treatment::SheriffProtect,  Treatment::Laser,
        Treatment::HuronStatic,     Treatment::HtmElide,
    };
    return all;
}

const Treatment *
tryParseTreatment(const std::string &name)
{
    for (const Treatment &t : allTreatments()) {
        if (name == treatmentName(t))
            return &t;
    }
    return nullptr;
}

const char *
placementName(PlacementPolicy p)
{
    switch (p) {
      case PlacementPolicy::Default:
        return "default";
      case PlacementPolicy::Pack:
        return "pack";
      case PlacementPolicy::Arena:
        return "arena";
      case PlacementPolicy::Isolate:
        return "isolate";
    }
    return "?";
}

const std::vector<PlacementPolicy> &
allPlacements()
{
    static const std::vector<PlacementPolicy> all = {
        PlacementPolicy::Default,
        PlacementPolicy::Pack,
        PlacementPolicy::Arena,
        PlacementPolicy::Isolate,
    };
    return all;
}

const PlacementPolicy *
tryParsePlacement(const std::string &name)
{
    for (const PlacementPolicy &p : allPlacements()) {
        if (name == placementName(p))
            return &p;
    }
    return nullptr;
}

namespace
{

bool
isTmiTreatment(Treatment t)
{
    return t == Treatment::TmiAlloc || t == Treatment::TmiDetect ||
           t == Treatment::TmiProtect ||
           t == Treatment::TmiProtectNoCcc ||
           t == Treatment::PtsbEverywhere;
}

bool
isSheriffTreatment(Treatment t)
{
    return t == Treatment::SheriffDetect ||
           t == Treatment::SheriffProtect;
}

} // namespace

void
validateConfig(const ExperimentConfig &config,
               std::vector<ConfigError> &errors,
               const std::string &prefix)
{
    const WorkloadInfo *winfo = nullptr;
    if (config.workload.empty()) {
        errors.push_back({prefix + ".workload",
                          "must name a registered workload"});
    } else if (!(winfo = tryFindWorkload(config.workload))) {
        errors.push_back({prefix + ".workload",
                          "unknown workload '" + config.workload +
                              "'"});
    }
    if (winfo && !config.params.empty()) {
        ParamValues resolved;
        std::string perr;
        if (!resolveParams(winfo->schema, config.params, resolved,
                           perr)) {
            errors.push_back({prefix + ".params", perr});
        }
    }
    if (config.threads == 0) {
        errors.push_back({prefix + ".threads", "must be >= 1"});
    } else if (config.threads > maxCacheCores) {
        errors.push_back({prefix + ".threads",
                          "must be <= 32: each thread gets its own "
                          "core, and the machine has at most 32"});
    }
    if (config.scale == 0) {
        errors.push_back({prefix + ".scale",
                          "must be >= 1: a zero input size runs "
                          "nothing"});
    }
    if (config.pageShift < smallPageShift ||
        config.pageShift > hugePageShift) {
        errors.push_back({prefix + ".pageShift",
                          "must be between 12 (4 KB) and 21 (2 MB)"});
    }
    if (config.placement != PlacementPolicy::Default &&
        (isTmiTreatment(config.treatment) ||
         isSheriffTreatment(config.treatment))) {
        errors.push_back({prefix + ".placement",
                          "the shm-backed treatments own their "
                          "allocator policy; the placement axis "
                          "applies to pthreads/manual/laser/"
                          "huron-static/htm-elide"});
    }
    if (config.perfPeriod == 0) {
        errors.push_back({prefix + ".perfPeriod",
                          "must be >= 1: PEBS cannot sample every "
                          "zeroth event"});
    }
    if (config.repairThreshold <= 0) {
        errors.push_back({prefix + ".repairThreshold",
                          "must be positive: a free threshold would "
                          "repair every sampled page"});
    }
    if (config.analysisInterval == 0) {
        errors.push_back({prefix + ".analysisInterval",
                          "must be positive: the detection thread "
                          "needs a wakeup cadence"});
    }
    if (config.budget == 0) {
        errors.push_back({prefix + ".budget",
                          "must be positive: a zero budget times out "
                          "immediately"});
    }
    if (config.watchdog < -1 || config.watchdog > 1) {
        errors.push_back({prefix + ".watchdog",
                          "must be -1 (treatment default), 0 (off) "
                          "or 1 (on)"});
    }
    if (config.monitor < -1 || config.monitor > 1) {
        errors.push_back({prefix + ".monitor",
                          "must be -1 (treatment default), 0 (off) "
                          "or 1 (on)"});
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
        if (spec.windowEnd != 0 &&
            spec.windowEnd <= spec.windowStart) {
            errors.push_back({prefix + ".faults[" + point + "]",
                              "windowEnd must be 0 (unbounded) or "
                              "> windowStart"});
        }
        if (spec.burstLen != 0 && spec.burstPeriod == 0) {
            errors.push_back({prefix + ".faults[" + point + "]",
                              "burstLen needs a nonzero "
                              "burstPeriod"});
        }
        if (spec.burstLen > spec.burstPeriod) {
            errors.push_back({prefix + ".faults[" + point + "]",
                              "burstLen must be <= burstPeriod "
                              "(the burst must fit its period)"});
        }
    }
    if (!config.planIn.empty()) {
        staticrepair::LayoutPlan plan;
        std::string perr;
        if (!staticrepair::parsePlan(config.planIn, plan, perr)) {
            errors.push_back({prefix + ".planIn", perr});
        }
    }
    obs::validateConfig(config.trace, errors, prefix + ".trace");
}

RunResult
runExperiment(const ExperimentConfig &config)
{
    Config full;
    full.run = config;
    return runExperiment(full);
}

namespace
{

/**
 * Run one machine+workload cell. @p prepare runs right after machine
 * construction (install alloc hooks / profilers); @p finish runs
 * before the machine dies (harvest anything that needs live machine
 * state). Both may be null.
 */
RunResult
runCell(const Config &full,
        const std::function<void(Machine &)> &prepare,
        const std::function<void(Machine &, RunResult &)> &finish)
{
    const ExperimentConfig &config = full.run;
    const WorkloadInfo &info = findWorkload(config.workload);

    // Start from the deep template, overlay every run.* scalar: the
    // run view is always authoritative over the template (see
    // config.hh for the rule).
    MachineConfig mc = full.machine;
    mc.cores = config.threads;
    mc.pageShift = config.pageShift;
    mc.allocator = config.allocator;
    mc.perf.period = config.perfPeriod;
    mc.seed = config.seed;
    // Tmi and Sheriff serve application memory from process-shared,
    // file-backed mappings and use the modified small-object policy;
    // pthreads/manual/LASER run the stock allocator on anonymous
    // memory.
    mc.shmBackedHeap =
        isTmiTreatment(config.treatment) ||
        isSheriffTreatment(config.treatment);
    mc.tmiModifiedAllocator = mc.shmBackedHeap;
    // The malloc-placement axis overrides the treatment's allocator
    // defaults (validateConfig rejects it for the shm-backed
    // treatments, whose repair machinery owns the layout policy).
    switch (config.placement) {
      case PlacementPolicy::Default:
        break;
      case PlacementPolicy::Pack:
        // Dense shared-arena packing: 16-byte granules plus the 8-byte
        // header skew mean small objects from different threads share
        // lines routinely.
        mc.allocator = AllocatorKind::GlibcLike;
        mc.tmiModifiedAllocator = false;
        break;
      case PlacementPolicy::Arena:
        mc.allocator = AllocatorKind::Lockless;
        mc.tmiModifiedAllocator = false;
        break;
      case PlacementPolicy::Isolate:
        // Per-thread arenas plus the line-granular small-object floor:
        // no two threads' small objects ever share a cache line.
        mc.allocator = AllocatorKind::Lockless;
        mc.tmiModifiedAllocator = true;
        break;
    }
    mc.faults = config.faults;
    mc.faultSeed = config.faultSeed;
    mc.trace = config.trace;

    Machine machine(mc);
    if (prepare)
        prepare(machine);

    WorkloadParams params;
    params.threads = config.threads;
    params.scale = config.scale;
    params.manualFix = config.treatment == Treatment::Manual;
    params.seed = config.seed;
    {
        // Defaults plus the validated overrides; validateOrDie
        // already rejected unknown or ill-typed keys above.
        std::string perr;
        if (!resolveParams(info.schema, config.params, params.extra,
                           perr)) {
            fatal("workload params failed late validation: %s",
                  perr.c_str());
        }
    }
    std::unique_ptr<Workload> workload = info.make(params);
    workload->init(machine);

    std::unique_ptr<TmiRuntime> tmi;
    std::unique_ptr<SheriffRuntime> sheriff;
    std::unique_ptr<LaserRuntime> laser;
    std::unique_ptr<HtmRuntime> htm;

    switch (config.treatment) {
      case Treatment::Pthreads:
      case Treatment::Manual:
        break;
      case Treatment::HuronStatic:
        // No runtime: both static-repair phases run plain machines;
        // the profiler/applier arrive through the prepare callback.
        break;
      case Treatment::TmiAlloc:
      case Treatment::TmiDetect:
      case Treatment::TmiProtect:
      case Treatment::TmiProtectNoCcc:
      case Treatment::PtsbEverywhere: {
        TmiConfig tc = full.tmi;
        tc.mode = config.treatment == Treatment::TmiAlloc
                      ? TmiMode::AllocOnly
                  : config.treatment == Treatment::TmiDetect
                      ? TmiMode::DetectOnly
                      : TmiMode::DetectAndRepair;
        tc.cccEnabled = config.treatment != Treatment::TmiProtectNoCcc;
        // The no-CCC ablation applies the PTSB indiscriminately: the
        // Figure 11/12 question is what an unguarded PTSB does to
        // atomics/asm, not whether targeted detection happens to
        // choose their pages.
        tc.ptsbEverywhere =
            config.treatment == Treatment::PtsbEverywhere ||
            config.treatment == Treatment::TmiProtectNoCcc;
        tc.detector.repairThreshold = config.repairThreshold;
        tc.analysisInterval = config.analysisInterval;
        // The ablation treatments exist to reproduce the paper's
        // failure modes (Fig. 11/12 hangs and racy merges), so the
        // self-healing machinery defaults off for them and the
        // failure is allowed to unfold unless explicitly overridden.
        bool ablation =
            config.treatment == Treatment::TmiProtectNoCcc ||
            config.treatment == Treatment::PtsbEverywhere;
        tc.robust.watchdogEnabled =
            config.watchdog == -1 ? !ablation : config.watchdog != 0;
        tc.robust.monitorEnabled =
            config.monitor == -1 ? !ablation : config.monitor != 0;
        if (config.watchdogTimeout != 0)
            tc.robust.watchdogTimeout = config.watchdogTimeout;
        tmi = std::make_unique<TmiRuntime>(machine, tc);
        tmi->attach();
        break;
      }
      case Treatment::SheriffDetect:
      case Treatment::SheriffProtect: {
        SheriffConfig sc;
        sc.detectMode = config.treatment == Treatment::SheriffDetect;
        // Stock Sheriff has no self-healing, so -1 keeps the watchdog
        // and monitor off and lets its documented failure modes
        // unfold; robustness sweeps arm them explicitly for
        // apples-to-apples ladder comparisons against Tmi.
        sc.robust.watchdogEnabled = config.watchdog == 1;
        sc.robust.monitorEnabled = config.monitor == 1;
        sc.monitorInterval = config.analysisInterval;
        if (config.watchdogTimeout != 0)
            sc.robust.watchdogTimeout = config.watchdogTimeout;
        sc.buggyDissolveOrder = config.sheriffBuggyDissolve;
        sheriff = std::make_unique<SheriffRuntime>(machine, sc);
        sheriff->attach();
        break;
      }
      case Treatment::Laser: {
        LaserConfig lc;
        lc.detector.repairThreshold = config.repairThreshold;
        lc.analysisInterval = config.analysisInterval;
        // Same convention as Sheriff: the effectiveness/perf-health
        // monitor is opt-in, preserving stock LASER behaviour (e.g.
        // the histogram slowdown) unless a sweep arms it.
        lc.robust.monitorEnabled = config.monitor == 1;
        laser = std::make_unique<LaserRuntime>(machine, lc);
        laser->attach();
        break;
      }
      case Treatment::HtmElide: {
        HtmConfig hc;
        hc.robust = full.tmi.robust;
        hc.robust.monitorEnabled = false; // no repair to judge
        // The abort-storm watchdog is this backend's livelock
        // defence, so unlike the ablations it defaults on.
        hc.robust.watchdogEnabled =
            config.watchdog == -1 ? true : config.watchdog != 0;
        htm = std::make_unique<HtmRuntime>(machine, hc);
        htm->attach();
        break;
      }
    }

    Workload *wl = workload.get();
    machine.spawnThread(std::string(info.name) + "-main",
                        [wl](ThreadApi &api) { wl->main(api); });

    machine.sched().setAbortFlag(config.cancel);

    RunResult res;
    res.workload = config.workload;
    res.treatment = config.treatment;
    res.outcome = machine.sched().run(config.budget);
    res.valid = res.outcome == RunOutcome::Completed &&
                workload->validate(machine);
    res.compatible = res.valid;
    // A digest of an incomplete run would hash half-written state;
    // the chaos oracle judges those by outcome instead.
    if (res.outcome == RunOutcome::Completed)
        res.resultDigest = workload->resultDigest(machine);

    res.cycles = machine.elapsed();
    res.seconds = static_cast<double>(res.cycles) /
                  machine.config().cyclesPerSecond;
    res.hitmEvents = machine.cache().hitmEvents();
    res.pebsRecords = machine.perf().recordsEmitted();
    res.softFaults = machine.mmu().softFaults();
    res.memOps = machine.memOpCount();
    res.faultFires = machine.faults().totalFires();
    res.appBytesPeak = machine.allocator().allocStats().bytesPeak;

    // Tail latency: harvested even on timeout -- a run that wedged
    // after serving half its requests still measured those.
    if (const obs::Histogram *lat = workload->latencyHistogram()) {
        res.requests = lat->count();
        res.sojournP50 = lat->p50();
        res.sojournP99 = lat->p99();
        res.sojournP999 = lat->p999();
    }

    if (tmi) {
        res.repairActive = tmi->repairActive();
        res.repairStartCycles = tmi->repairStartCycles();
        res.t2pCycles = tmi->t2pCycles();
        res.commits = tmi->totalCommits();
        res.conflictBytes = tmi->totalConflictBytes();
        res.pagesProtected = tmi->protectedPageCount();
        res.overheadBytes = tmi->overheadBytes();
        res.fsEventsEstimated = tmi->detector().fsEventsEstimated();
        res.tsEventsEstimated = tmi->detector().tsEventsEstimated();
        res.ladderRung = tmiModeName(tmi->rung());
        res.t2pAborts = tmi->t2pAborts();
        res.unrepairs = tmi->unrepairs();
        res.watchdogFlushes = tmi->watchdogFires();
        res.cowFallbacks = tmi->cowFallbacks();
        res.ladderDrops = tmi->ladderDrops();
        res.ladderRecovers = tmi->ladderRecovers();
        res.invariantViolations = tmi->invariants().violations();
    } else if (sheriff) {
        res.repairActive = true;
        res.commits = sheriff->totalCommits();
        res.conflictBytes = sheriff->totalConflictBytes();
        res.overheadBytes = machine.internalBytes();
        res.ladderRung = sheriff->rungName();
        res.t2pAborts = sheriff->t2pAborts();
        res.unrepairs = sheriff->unrepairs();
        res.watchdogFlushes = sheriff->watchdogFires();
        res.cowFallbacks = sheriff->cowFallbacks();
        res.ladderDrops = sheriff->ladderDrops();
        res.invariantViolations = sheriff->invariants().violations();
    } else if (laser) {
        res.repairActive = laser->repairActive();
        res.fsEventsEstimated = laser->detector().fsEventsEstimated();
        res.tsEventsEstimated = laser->detector().tsEventsEstimated();
        res.ladderRung = laser->rungName();
        res.unrepairs = laser->unrepairs();
        res.ladderDrops = laser->ladderDrops();
    } else if (htm) {
        res.repairActive = htm->elisionActive();
        res.txnCommits = machine.txnCommitCount();
        res.txnAborts = machine.txnAbortCount();
        res.txnFallbackLocks = htm->fallbackLocks();
        res.commits = res.txnCommits; // commits/s column analogue
        res.ladderRung = htm->rungName();
        res.watchdogFlushes = htm->watchdogFlushes();
        res.ladderDrops = htm->ladderDrops();
        res.ladderRecovers = htm->ladderRecovers();
        res.invariantViolations = htm->probe().violations();
    }
    if (res.seconds > 0) {
        res.commitsPerSec =
            static_cast<double>(res.commits) / res.seconds;
    }

    // Observability harvest: the stats dump and the metrics registry
    // are two views over the same StatGroup tree, so one registration
    // pass serves both. Keyed on trace.enabled (the request), not
    // machine.trace() (the recorder): on TMI_TRACING=OFF builds the
    // recorder is compiled out but the stats-derived metrics -- fault
    // fires above all -- must still land.
    if (config.dumpStats || config.trace.enabled) {
        stats::StatGroup machine_group("machine");
        machine.regStats(machine_group);
        stats::StatGroup runtime_group("runtime");
        if (tmi)
            tmi->regStats(runtime_group);
        else if (sheriff)
            sheriff->regStats(runtime_group);
        else if (laser)
            laser->regStats(runtime_group);
        else if (htm)
            htm->regStats(runtime_group);

        if (config.dumpStats) {
            std::ostringstream os;
            machine_group.dump(os);
            runtime_group.dump(os);
            res.statsText = os.str();
        }

        res.metrics = std::make_shared<obs::MetricsRegistry>();
        res.metrics->importStats(machine_group, "machine");
        res.metrics->importStats(runtime_group, "runtime");

        if (const obs::Histogram *lat = workload->latencyHistogram()) {
            res.metrics
                ->histogram("workload.sojourn.cycles",
                            "request sojourn time, simulated cycles")
                .merge(*lat);
        }

        // Fault-fire accounting straight from the injector, never
        // from the trace: obs.event.fault.fire below only exists when
        // the recorder does, and chaos verdicts need these counts on
        // every build.
        res.metrics
            ->counter("fault.fires",
                      "fault-point fires (trace-independent)")
            .add(static_cast<double>(machine.faults().totalFires()));
        for (const std::string &point :
             machine.faults().armedPoints()) {
            res.metrics
                ->counter("fault.fires." + point,
                          "fires at this point")
                .add(static_cast<double>(
                    machine.faults().fires(point)));
        }
    }

    if (obs::TraceRecorder *rec = machine.trace()) {
        res.traceRecorded = rec->recorded();
        res.traceOverwritten = rec->overwritten();
        // Per-kind totals survive ring wraparound, so export them as
        // metrics even when the timeline itself lost its tail.
        for (obs::EventKind kind : obs::allEventKinds()) {
            res.metrics
                ->counter(std::string("obs.event.") +
                              obs::eventKindName(kind),
                          "events recorded (incl. overwritten)")
                .add(static_cast<double>(rec->count(kind)));
        }
        res.metrics->counter("obs.trace.recorded")
            .add(static_cast<double>(rec->recorded()));
        res.metrics->counter("obs.trace.overwritten")
            .add(static_cast<double>(rec->overwritten()));
        res.traceEvents = rec->drain();
    }
    if (finish)
        finish(machine, res);
    return res;
}

/**
 * The huron-static treatment: a two-phase offline repair.
 *
 * Phase 1 (skipped when a plan is supplied via planIn) runs the
 * workload on a plain pthreads-configured machine with the profiling
 * daemon attached, harvests the contended-line evidence into a
 * LayoutProfile, and plans the layout. Phase 2 replays the workload
 * on a fresh identical machine with the PlanApplier intercepting
 * allocation. The returned result is the replay's; the profiling
 * phase contributes only planProfileHitms and the plan itself.
 */
RunResult
runHuronStatic(const Config &full)
{
    const ExperimentConfig &config = full.run;
    staticrepair::LayoutPlan plan;
    std::uint64_t profileHitms = 0;

    if (!config.planIn.empty()) {
        std::string perr;
        if (!staticrepair::parsePlan(config.planIn, plan, perr))
            fatal("bad planIn: %s", perr.c_str());
    } else {
        Config pcfg = full;
        // The profiling phase exists to produce the plan; its own
        // stats/trace capture would only be discarded.
        pcfg.run.dumpStats = false;
        pcfg.run.trace = obs::TraceConfig{};
        staticrepair::ProfilerConfig prof_cfg;
        prof_cfg.detector.samplePeriod = config.perfPeriod;
        prof_cfg.detector.repairThreshold = config.repairThreshold;
        prof_cfg.detector.pageShift = config.pageShift;
        prof_cfg.analysisInterval = config.analysisInterval;
        std::unique_ptr<staticrepair::StaticProfiler> profiler;
        staticrepair::LayoutProfile profile;
        RunResult pres = runCell(
            pcfg,
            [&](Machine &m) {
                profiler =
                    std::make_unique<staticrepair::StaticProfiler>(
                        m, prof_cfg);
                profiler->attach();
            },
            [&](Machine &m, RunResult &) {
                (void)m;
                profile = profiler->harvest();
            });
        profileHitms = pres.hitmEvents;
        profiler.reset();
        if (pres.outcome != RunOutcome::Completed) {
            // The profiling run wedged: report it as the cell's
            // outcome rather than replaying from garbage evidence.
            pres.planProfileHitms = profileHitms;
            return pres;
        }
        plan = staticrepair::LayoutPlanner().plan(profile);
    }

    std::unique_ptr<staticrepair::PlanApplier> applier;
    RunResult res = runCell(
        full,
        [&](Machine &m) {
            applier = std::make_unique<staticrepair::PlanApplier>(
                m, plan);
            m.setAllocHook(applier.get());
        },
        [&](Machine &m, RunResult &r) {
            (void)m;
            r.planSites = plan.sites.size();
            r.planAppliedSites = applier->appliedSites();
            r.planPaddingBytes = applier->paddingBytes();
            r.planRedirectedSites = applier->redirectedSites();
            r.overheadBytes += applier->paddingBytes();
        });
    res.planProfileHitms = profileHitms;
    res.planText = staticrepair::writePlan(plan);
    return res;
}

} // namespace

RunResult
runExperiment(const Config &full)
{
    full.validateOrDie();
    if (full.run.treatment == Treatment::HuronStatic)
        return runHuronStatic(full);
    return runCell(full, nullptr, nullptr);
}

const char *
outcomeStr(const RunResult &res)
{
    return res.compatible                        ? "ok"
           : res.outcome == RunOutcome::Timeout  ? "HANG"
           : res.outcome == RunOutcome::Deadlock ? "DEADLOCK"
                                                 : "WRONG";
}

namespace
{

/** One robustness-sweep row: a run plus its scenario labels. */
struct RobustnessRow
{
    const RunResult &res;
    const std::string &scenario;
    double slowdown;
};
using R = RobustnessRow;

template <auto Field>
std::string
counter(const R &r)
{
    return std::to_string(r.res.*Field);
}

const CsvColumn<R> kRobustnessColumns[] = {
    {"workload", [](const R &r) { return r.res.workload; }},
    {"scenario", [](const R &r) { return r.scenario; }},
    {"outcome", [](const R &r) -> std::string { return outcomeStr(r.res); }},
    {"rung", [](const R &r) { return r.res.ladderRung; }},
    {"slowdown", [](const R &r) { return strprintf("%.4f", r.slowdown); }},
    {"fires", counter<&RunResult::faultFires>},
    {"t2p_aborts", counter<&RunResult::t2pAborts>},
    {"unrepairs", counter<&RunResult::unrepairs>},
    {"watchdog", counter<&RunResult::watchdogFlushes>},
    {"cow_fallbacks", counter<&RunResult::cowFallbacks>},
};

} // namespace

const char *
robustnessCsvHeader()
{
    static const std::string header = csvHeader(kRobustnessColumns);
    return header.c_str();
}

std::string
robustnessCsvRow(const RunResult &res, const std::string &scenario,
                 double slowdown)
{
    return csvRow(kRobustnessColumns, R{res, scenario, slowdown});
}

double
speedup(const RunResult &baseline, const RunResult &treated)
{
    if (treated.cycles == 0)
        return 0.0;
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(treated.cycles);
}

} // namespace tmi
