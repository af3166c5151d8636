#include "experiment.hh"

#include <sstream>

#include "baselines/htm.hh"
#include "baselines/laser.hh"
#include "baselines/sheriff.hh"
#include "core/config.hh"
#include "core/csv.hh"
#include "runtime/tmi_runtime.hh"
#include "staticrepair/applier.hh"
#include "staticrepair/profiler.hh"
#include "workloads/workload.hh"

namespace tmi
{

namespace
{

/** Tmi's five activation levels and ablations share one runtime; the
 *  treatment picks its mode, CCC and PTSB scope. */
std::unique_ptr<RepairRuntime>
makeTmi(Machine &machine, const Config &full)
{
    const ExperimentConfig &config = full.run;
    TmiConfig tc = full.tmi;
    tc.mode = config.treatment == Treatment::TmiAlloc
                  ? TmiMode::AllocOnly
              : config.treatment == Treatment::TmiDetect
                  ? TmiMode::DetectOnly
                  : TmiMode::DetectAndRepair;
    tc.cccEnabled = config.treatment != Treatment::TmiProtectNoCcc;
    // The no-CCC ablation applies the PTSB indiscriminately: the
    // Figure 11/12 question is what an unguarded PTSB does to
    // atomics/asm, not whether targeted detection happens to choose
    // their pages.
    tc.ptsbEverywhere = config.treatment == Treatment::PtsbEverywhere ||
                        config.treatment == Treatment::TmiProtectNoCcc;
    tc.detector.repairThreshold = config.repairThreshold;
    tc.analysisInterval = config.analysisInterval;
    // The ablation treatments exist to reproduce the paper's failure
    // modes (Fig. 11/12 hangs and racy merges), so the self-healing
    // machinery defaults off for them and the failure is allowed to
    // unfold unless explicitly overridden.
    bool ablation = config.treatment == Treatment::TmiProtectNoCcc ||
                    config.treatment == Treatment::PtsbEverywhere;
    tc.robust.watchdogEnabled =
        config.watchdog == -1 ? !ablation : config.watchdog != 0;
    tc.robust.monitorEnabled =
        config.monitor == -1 ? !ablation : config.monitor != 0;
    if (config.watchdogTimeout != 0)
        tc.robust.watchdogTimeout = config.watchdogTimeout;
    return std::make_unique<TmiRuntime>(machine, tc);
}

std::unique_ptr<RepairRuntime>
makeSheriff(Machine &machine, const Config &full)
{
    const ExperimentConfig &config = full.run;
    SheriffConfig sc;
    sc.detectMode = config.treatment == Treatment::SheriffDetect;
    // Stock Sheriff has no self-healing, so -1 keeps the watchdog and
    // monitor off and lets its documented failure modes unfold;
    // robustness sweeps arm them explicitly for apples-to-apples
    // ladder comparisons against Tmi.
    sc.robust.watchdogEnabled = config.watchdog == 1;
    sc.robust.monitorEnabled = config.monitor == 1;
    sc.monitorInterval = config.analysisInterval;
    if (config.watchdogTimeout != 0)
        sc.robust.watchdogTimeout = config.watchdogTimeout;
    sc.buggyDissolveOrder = config.sheriffBuggyDissolve;
    return std::make_unique<SheriffRuntime>(machine, sc);
}

std::unique_ptr<RepairRuntime>
makeLaser(Machine &machine, const Config &full)
{
    const ExperimentConfig &config = full.run;
    LaserConfig lc;
    lc.detector.repairThreshold = config.repairThreshold;
    lc.analysisInterval = config.analysisInterval;
    // Same convention as Sheriff: the effectiveness/perf-health
    // monitor is opt-in, preserving stock LASER behaviour (e.g. the
    // histogram slowdown) unless a sweep arms it.
    lc.robust.monitorEnabled = config.monitor == 1;
    return std::make_unique<LaserRuntime>(machine, lc);
}

std::unique_ptr<RepairRuntime>
makeHtm(Machine &machine, const Config &full)
{
    HtmConfig hc;
    hc.robust = full.tmi.robust;
    hc.robust.monitorEnabled = false; // no repair to judge
    // The abort-storm watchdog is this backend's livelock defence, so
    // unlike the ablations it defaults on.
    hc.robust.watchdogEnabled =
        full.run.watchdog == -1 ? true : full.run.watchdog != 0;
    return std::make_unique<HtmRuntime>(machine, hc);
}

/** huron-static's profiling run: TMI's detector without the repair
 *  arm, tuned like the cell's detection knobs. */
std::unique_ptr<RepairRuntime>
makeHuronProfiler(Machine &machine, const Config &full)
{
    const ExperimentConfig &config = full.run;
    staticrepair::ProfilerConfig pc;
    pc.detector.samplePeriod = config.perfPeriod;
    pc.detector.repairThreshold = config.repairThreshold;
    pc.detector.pageShift = config.pageShift;
    pc.analysisInterval = config.analysisInterval;
    return std::make_unique<staticrepair::StaticProfiler>(machine, pc);
}

/** huron-static's replay: apply run.planIn at allocation time. */
std::unique_ptr<RepairRuntime>
makeHuronApplier(Machine &machine, const Config &full)
{
    staticrepair::LayoutPlan plan;
    std::string perr;
    if (!staticrepair::parsePlan(full.run.planIn, plan, perr))
        fatal("bad planIn: %s", perr.c_str());
    return std::make_unique<staticrepair::PlanApplier>(machine,
                                                       std::move(plan));
}

using RuntimeFactory = std::unique_ptr<RepairRuntime> (*)(Machine &,
                                                         const Config &);

/** One treatment: everything the driver needs to know about it. */
struct TreatmentRow
{
    Treatment treatment;
    const char *name;        //!< report/CSV/CLI name
    const char *description; //!< --list-treatments line
    /** Application memory comes from process-shared, file-backed
     *  mappings with the modified small-object policy (Tmi and
     *  Sheriff); the rest run the stock allocator on anonymous
     *  memory. */
    bool shmBackedHeap;
    /** Builds the runtime from the cell's Config; null = no runtime. */
    RuntimeFactory make;
    /** An offline repair's profiling runtime (huron-static only). A
     *  cell without run.planIn first runs a profiling cell under it;
     *  the plan that run harvests reaches @ref make as run.planIn,
     *  the same text path --plan-in takes. */
    RuntimeFactory profile = nullptr;
};

/** Every treatment, in declaration (= report) order. */
constexpr TreatmentRow kTreatments[] = {
    {Treatment::Pthreads, "pthreads",
     "plain execution, stock allocator (baseline)", false, nullptr},
    {Treatment::Manual, "manual",
     "source-level fix: hand padding/alignment", false, nullptr},
    {Treatment::TmiAlloc, "tmi-alloc",
     "TMI's process-shared allocator only", true, makeTmi},
    {Treatment::TmiDetect, "tmi-detect",
     "TMI allocator + HITM sampling and detection thread", true,
     makeTmi},
    {Treatment::TmiProtect, "tmi-protect",
     "full TMI: detection + online page privatization", true, makeTmi},
    {Treatment::TmiProtectNoCcc, "tmi-protect-no-ccc",
     "ablation: PTSB everywhere with CCC off (Fig. 11/12)", true,
     makeTmi},
    {Treatment::PtsbEverywhere, "ptsb-everywhere",
     "ablation: repair protects the whole heap", true, makeTmi},
    {Treatment::SheriffDetect, "sheriff-detect",
     "Sheriff detection tool (prior work)", true, makeSheriff},
    {Treatment::SheriffProtect, "sheriff-protect",
     "Sheriff repair tool (buffers atomics too)", true, makeSheriff},
    {Treatment::Laser, "laser",
     "LASER detection + software store-buffer repair", false,
     makeLaser},
    {Treatment::HuronStatic, "huron-static",
     "Huron-style offline repair: profile, plan layout, replay with "
     "apply-at-alloc",
     false, makeHuronApplier, makeHuronProfiler},
    {Treatment::HtmElide, "htm-elide",
     "HTM lock elision: bounded txns with retry/fallback and an "
     "abort-storm watchdog",
     false, makeHtm},
};

constexpr bool
rowsInEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kTreatments); ++i) {
        if (static_cast<std::size_t>(kTreatments[i].treatment) != i)
            return false;
    }
    return std::size(kTreatments) ==
           static_cast<std::size_t>(Treatment::HtmElide) + 1;
}
static_assert(rowsInEnumOrder(),
              "kTreatments must list every Treatment in enum order");

const TreatmentRow &
treatmentRow(Treatment t)
{
    return kTreatments[static_cast<std::size_t>(t)];
}

} // namespace

const char *
treatmentName(Treatment t)
{
    return treatmentRow(t).name;
}

const char *
treatmentDescription(Treatment t)
{
    return treatmentRow(t).description;
}

const std::vector<Treatment> &
allTreatments()
{
    static const std::vector<Treatment> all = [] {
        std::vector<Treatment> v;
        for (const TreatmentRow &row : kTreatments)
            v.push_back(row.treatment);
        return v;
    }();
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
    static constexpr const char *kNames[] = {"default", "pack", "arena",
                                             "isolate"};
    return kNames[static_cast<std::size_t>(p)];
}

const std::vector<PlacementPolicy> &
allPlacements()
{
    static const std::vector<PlacementPolicy> all = {
        PlacementPolicy::Default, PlacementPolicy::Pack,
        PlacementPolicy::Arena, PlacementPolicy::Isolate};
    return all;
}

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
    } else if (config.scale > maxScale) {
        errors.push_back({prefix + ".scale",
                          "must be <= " + std::to_string(maxScale) +
                              ": scale multiplies the input size, "
                              "and a runaway value runs until "
                              "killed"});
    }
    if (config.pageShift < smallPageShift ||
        config.pageShift > hugePageShift) {
        errors.push_back({prefix + ".pageShift",
                          "must be between 12 (4 KB) and 21 (2 MB)"});
    }
    if (config.placement != PlacementPolicy::Default &&
        treatmentRow(config.treatment).shmBackedHeap) {
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
        std::string why = FaultInjector::unknownPointError(point);
        if (!why.empty())
            errors.push_back({prefix + ".faults", why});
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

/** Run one machine+workload cell under @p make's runtime (null =
 *  none), in the order repair_runtime.hh describes. */
RunResult
runCell(const Config &full, RuntimeFactory make)
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
    const TreatmentRow &treatment = treatmentRow(config.treatment);
    mc.shmBackedHeap = treatment.shmBackedHeap;
    mc.tmiModifiedAllocator = mc.shmBackedHeap;
    // The malloc-placement axis overrides the treatment's allocator
    // defaults (validateConfig rejects it for the shm-backed
    // treatments, whose repair machinery owns the layout policy).
    if (config.placement != PlacementPolicy::Default) {
        // Pack: the glibc-like shared arena's dense 16-byte granules
        // plus the 8-byte header skew put small objects from
        // different threads on shared lines routinely. Arena:
        // per-thread size-class arenas. Isolate: per-thread arenas
        // plus the line-granular small-object floor, so no two
        // threads' small objects ever share a cache line.
        mc.allocator = config.placement == PlacementPolicy::Pack
                           ? AllocatorKind::GlibcLike
                           : AllocatorKind::Lockless;
        mc.tmiModifiedAllocator =
            config.placement == PlacementPolicy::Isolate;
    }
    mc.faults = config.faults;
    mc.faultSeed = config.faultSeed;
    mc.trace = config.trace;

    Machine machine(mc);
    std::unique_ptr<RepairRuntime> runtime;
    if (make)
        runtime = make(machine, full);

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
    if (runtime)
        runtime->attach();

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

    if (runtime)
        runtime->harvest(res);
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
        if (runtime)
            runtime->regStats(runtime_group);

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
    return res;
}

} // namespace

RunResult
runExperiment(const Config &full)
{
    full.validateOrDie();
    const TreatmentRow &row = treatmentRow(full.run.treatment);
    if (!row.profile || !full.run.planIn.empty())
        return runCell(full, row.make);

    // The profiling run exists to produce the plan; its own
    // stats/trace capture would only be discarded. A wedged one is
    // reported as the cell's outcome rather than replaying from
    // partial evidence.
    Config profiling = full;
    profiling.run.dumpStats = false;
    profiling.run.trace = obs::TraceConfig{};
    RunResult profile = runCell(profiling, row.profile);
    if (profile.outcome != RunOutcome::Completed)
        return profile;

    Config replay = full;
    replay.run.planIn = profile.planText;
    RunResult res = runCell(replay, row.make);
    res.planProfileHitms = profile.planProfileHitms;
    return res;
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
