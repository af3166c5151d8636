#include "campaign.hh"

#include <ostream>

#include "common/fnv.hh"
#include "core/csv.hh"
#include "driver/sink.hh"

namespace tmi::chaos
{

namespace
{

/** The fault-free config for one (workload, treatment) cell. */
Config
cellConfig(const CampaignSpec &spec, const std::string &workload,
           Treatment treatment)
{
    Config config = spec.base;
    config.run.workload = workload;
    config.run.treatment = treatment;
    config.run.faults.clear();
    config.run.sheriffBuggyDissolve = spec.sheriffBuggyDissolve;
    return config;
}

/** The run-cell fields of a schedule, from a cell config. */
void
fillCell(ChaosSchedule &sched, const Config &config)
{
    sched.workload = config.run.workload;
    sched.treatment = config.run.treatment;
    sched.threads = config.run.threads;
    sched.scale = config.run.scale;
    sched.seed = config.run.seed;
    sched.budget = config.run.budget;
    sched.sheriffBuggyDissolve = config.run.sheriffBuggyDissolve;
    // Capture the self-healing arming too: a reproducer spec must
    // replay the exact ladder the run failed under, not whatever the
    // replaying binary's base config happens to arm.
    sched.watchdog = config.run.watchdog;
    sched.monitor = config.run.monitor;
    sched.watchdogTimeout = config.run.watchdogTimeout;
    sched.analysisInterval = config.run.analysisInterval;
    sched.recoverUpWindows = config.tmi.robust.recoverUpWindows;
}

/** Judge a delivered job against its golden (host failures too). */
Judgement
judgeJob(const driver::JobResult &jr, const RunResult &golden)
{
    switch (jr.status) {
      case driver::JobStatus::Ok:
        return judge(golden, jr.run);
      case driver::JobStatus::TimedOut:
        return {Verdict::Livelock, "killed by the host-side timeout"};
      case driver::JobStatus::Failed:
        return {Verdict::RunFailed,
                jr.error.empty() ? "job failed" : jr.error};
      case driver::JobStatus::Poisoned:
        return {Verdict::RunFailed,
                jr.error.empty() ? "quarantined as a poison job"
                                 : jr.error};
      case driver::JobStatus::Cancelled:
        break;
    }
    return {Verdict::NoDigest, "cancelled before running"};
}

} // namespace

std::vector<ConfigError>
CampaignSpec::validate() const
{
    std::vector<ConfigError> errors;
    if (workloads.empty()) {
        errors.push_back({"CampaignSpec.workloads",
                          "a campaign needs at least one workload"});
    }
    if (treatments.empty()) {
        errors.push_back({"CampaignSpec.treatments",
                          "a campaign needs at least one treatment"});
    }
    if (schedules == 0) {
        errors.push_back({"CampaignSpec.schedules",
                          "a campaign of zero schedules per cell "
                          "judges nothing"});
    }
    if (generator.minEvents < 1 ||
        generator.maxEvents < generator.minEvents) {
        errors.push_back({"CampaignSpec.generator",
                          "event range [min, max] is invalid"});
    }
    // Every cell must be a runnable config (bad workload names and
    // template inconsistencies surface here, not mid-campaign).
    for (const std::string &wl : workloads) {
        for (Treatment t : treatments) {
            for (ConfigError &e :
                 cellConfig(*this, wl, t).validate()) {
                e.field = wl + "/" + treatmentName(t) + ": " + e.field;
                errors.push_back(std::move(e));
            }
        }
    }
    return errors;
}

std::uint64_t
CampaignSpec::totalRuns() const
{
    std::uint64_t cells = static_cast<std::uint64_t>(
                              workloads.size()) *
                          treatments.size();
    return cells * (1 + schedules);
}

namespace
{

using R = CampaignRow;
using driver::okCount;

template <auto Field>
std::string
cellInt(const R &r)
{
    return std::to_string(r.schedule.*Field);
}

bool
ranOk(const R &r)
{
    return r.status == driver::JobStatus::Ok;
}

const CsvColumn<R> kChaosColumns[] = {
    {"row_id", [](const R &r) { return std::to_string(r.id); }},
    {"kind",
     [](const R &r) -> std::string { return r.golden ? "golden" : "chaos"; }},
    {"workload", [](const R &r) { return r.schedule.workload; }},
    {"treatment",
     [](const R &r) -> std::string {
         return treatmentName(r.schedule.treatment);
     }},
    {"threads", cellInt<&ChaosSchedule::threads>},
    {"scale", cellInt<&ChaosSchedule::scale>},
    {"seed", cellInt<&ChaosSchedule::seed>},
    {"campaign_seed", cellInt<&ChaosSchedule::campaignSeed>},
    {"schedule_index", cellInt<&ChaosSchedule::index>},
    {"fault_seed", cellInt<&ChaosSchedule::faultSeed>},
    {"events",
     [](const R &r) { return std::to_string(r.schedule.events.size()); }},
    {"status",
     [](const R &r) -> std::string {
         return driver::jobStatusName(r.status);
     }},
    {"outcome",
     [](const R &r) {
         return dashUnless(ranOk(r), outcomeName(r.run.outcome));
     }},
    {"verdict",
     [](const R &r) -> std::string {
         return r.golden ? "golden" : verdictName(r.judgement.verdict);
     }},
    {"reason",
     [](const R &r) {
         return dashUnless(!r.judgement.reason.empty(),
                           csvSanitize(r.judgement.reason));
     }},
    {"rung",
     [](const R &r) {
         return dashUnless(ranOk(r) && !r.run.ladderRung.empty(),
                           r.run.ladderRung);
     }},
    {"cycles", okCount<&RunResult::cycles>},
    {"slowdown", [](const R &r) { return strprintf("%.4f", r.slowdown); }},
    {"fault_fires", okCount<&RunResult::faultFires>},
    {"t2p_aborts", okCount<&RunResult::t2pAborts>},
    {"unrepairs", okCount<&RunResult::unrepairs>},
    {"watchdog_flushes", okCount<&RunResult::watchdogFlushes>},
    {"ladder_drops", okCount<&RunResult::ladderDrops>},
    {"ladder_recovers", okCount<&RunResult::ladderRecovers>},
    {"invariant_violations", okCount<&RunResult::invariantViolations>},
    {"digest",
     [](const R &r) { return hashHex(ranOk(r) ? r.run.resultDigest : 0); }},
    {"golden_digest", [](const R &r) { return hashHex(r.goldenDigest); }},
};

} // namespace

const char *
chaosCsvHeader()
{
    static const std::string header = csvHeader(kChaosColumns);
    return header.c_str();
}

std::string
chaosCsvRow(const CampaignRow &row)
{
    return csvRow(kChaosColumns, row);
}

CampaignOutcome
runCampaign(const CampaignSpec &spec, driver::Executor &executor,
            std::ostream *csv)
{
    CampaignOutcome out;
    if (csv)
        *csv << chaosCsvHeader() << "\n";

    struct Cell
    {
        Config config;
        RunResult golden;
        bool goldenOk = false;
    };
    std::vector<Cell> cells;
    for (const std::string &wl : spec.workloads) {
        for (Treatment t : spec.treatments)
            cells.push_back({cellConfig(spec, wl, t), {}, false});
    }

    // Phase 1: golden fault-free runs, one job per cell. Delivered
    // in job-id (== cell) order, so the golden rows stream first and
    // in a stable order for any worker or shard count.
    std::vector<driver::Job> golden_jobs;
    for (const Cell &cell : cells)
        golden_jobs.push_back({0, cell.config, "", 0.0});

    std::uint64_t next_id = 0;
    driver::FunctionSink golden_sink([&](const driver::JobResult &jr) {
        Cell &cell = cells[jr.job.id];
        CampaignRow row;
        row.id = next_id++;
        row.golden = true;
        fillCell(row.schedule, cell.config);
        row.schedule.campaignSeed = spec.campaignSeed;
        row.status = jr.status;
        row.run = jr.run;
        if (jr.status == driver::JobStatus::Ok) {
            cell.golden = jr.run;
            cell.goldenOk = jr.run.outcome == RunOutcome::Completed;
            row.goldenDigest = jr.run.resultDigest;
            row.slowdown = 1.0;
            row.judgement = {Verdict::Pass, "golden baseline"};
        } else {
            row.judgement = judgeJob(jr, {});
            ++out.jobFailures;
        }
        if (csv)
            *csv << chaosCsvRow(row) << "\n";
    });
    executor.run("goldens", std::move(golden_jobs), &golden_sink);

    // Phase 2: the chaos matrix. Schedule draw k of cell c is a pure
    // function of (campaign seed, c * schedules + k, the cell's
    // golden makespan as the window horizon), so the job list (and
    // the CSV) is reproducible however execution interleaves, and
    // the sink re-draws each delivered job's schedule on demand
    // instead of buffering all of them: the campaign holds one row
    // at a time no matter how many schedules run.
    ScheduleGenerator gen(spec.campaignSeed, spec.generator);
    auto drawSchedule = [&](std::uint64_t globalIndex) {
        const Cell &cell = cells[globalIndex / spec.schedules];
        ChaosSchedule sched = gen.generate(
            globalIndex, cell.goldenOk ? cell.golden.cycles : 0);
        fillCell(sched, cell.config);
        // fillCell resets provenance inputs to the cell's; keep the
        // draw identity.
        sched.campaignSeed = spec.campaignSeed;
        return sched;
    };

    std::vector<driver::Job> chaos_jobs;
    for (std::uint64_t i = 0; i < cells.size() * spec.schedules; ++i) {
        chaos_jobs.push_back(
            {0, drawSchedule(i).toConfig(spec.base), "chaos", 0.0});
    }

    // Failures queued for phase 3 (bounded by minimizeLimit).
    std::vector<ChaosSchedule> to_minimize;

    driver::FunctionSink chaos_sink([&](const driver::JobResult &jr) {
        const Cell &cell = cells[jr.job.id / spec.schedules];
        CampaignRow row;
        row.id = next_id++;
        row.schedule = drawSchedule(jr.job.id);
        row.status = jr.status;
        row.run = jr.run;
        row.goldenDigest =
            cell.goldenOk ? cell.golden.resultDigest : 0;
        row.judgement = judgeJob(jr, cell.golden);
        if (jr.status == driver::JobStatus::Ok && cell.goldenOk &&
            cell.golden.cycles != 0) {
            row.slowdown = static_cast<double>(jr.run.cycles) /
                           static_cast<double>(cell.golden.cycles);
        }
        if (jr.status != driver::JobStatus::Ok)
            ++out.jobFailures;
        ++out.judged;
        if (row.judgement.pass())
            ++out.passed;
        else if (row.judgement.fail())
            ++out.failed;
        else
            ++out.skipped;
        if (spec.minimizeFailures &&
            to_minimize.size() < spec.minimizeLimit &&
            row.judgement.fail() &&
            jr.status == driver::JobStatus::Ok) {
            to_minimize.push_back(row.schedule);
        }
        if (csv)
            *csv << chaosCsvRow(row) << "\n";
    });
    executor.run("chaos", std::move(chaos_jobs), &chaos_sink);

    // Phase 3: shrink the queued failures to 1-minimal reproducers.
    // Probes replay synchronously (deterministically) in this
    // process; the CSV is already complete.
    for (const ChaosSchedule &failure : to_minimize) {
        const Cell &cell = cells[failure.index / spec.schedules];
        auto still_fails = [&](const ChaosSchedule &s) {
            RunResult probe = runExperiment(s.toConfig(spec.base));
            return judge(cell.golden, probe).fail();
        };
        CampaignOutcome::Reproducer repro;
        repro.minimized =
            minimizeSchedule(failure, still_fails, &repro.stats);
        RunResult replay =
            runExperiment(repro.minimized.toConfig(spec.base));
        repro.judgement = judge(cell.golden, replay);
        out.reproducers.push_back(std::move(repro));
    }
    return out;
}

CampaignRow
replaySchedule(const ChaosSchedule &schedule, const Config &base)
{
    Config faulted_cfg = schedule.toConfig(base);
    Config golden_cfg = faulted_cfg;
    golden_cfg.run.faults.clear();

    CampaignRow row;
    row.schedule = schedule;
    row.status = driver::JobStatus::Ok;

    RunResult golden = runExperiment(golden_cfg);
    row.goldenDigest = golden.resultDigest;
    row.run = runExperiment(faulted_cfg);
    row.judgement = judge(golden, row.run);
    if (golden.outcome == RunOutcome::Completed &&
        golden.cycles != 0) {
        row.slowdown = static_cast<double>(row.run.cycles) /
                       static_cast<double>(golden.cycles);
    }
    annotateTrace(row.run, schedule, row.judgement);
    return row;
}

} // namespace tmi::chaos
