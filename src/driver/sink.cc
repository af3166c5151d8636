#include "sink.hh"

#include <unistd.h>

#include "workloads/params.hh"

namespace tmi::driver
{

namespace
{

using R = JobResult;

template <auto Field>
std::string
runInt(const R &r)
{
    return std::to_string(r.job.config.run.*Field);
}

constexpr char kSeconds[] = "%.9f";
constexpr char kSojourn[] = "%.3f";

/** A RunResult double in format @p Fmt, zeroed unless the job ran. */
template <auto Field, const char *Fmt>
std::string
okFixed(const R &r)
{
    return strprintf(Fmt, r.status == JobStatus::Ok ? r.run.*Field : 0.0);
}

const CsvColumn<R> kSweepColumns[] = {
    {"job_id", [](const R &r) { return std::to_string(r.job.id); }},
    {"workload", [](const R &r) { return r.job.config.run.workload; }},
    {"treatment",
     [](const R &r) -> std::string {
         return treatmentName(r.job.config.run.treatment);
     }},
    {"threads", runInt<&ExperimentConfig::threads>},
    {"scale", runInt<&ExperimentConfig::scale>},
    {"period", runInt<&ExperimentConfig::perfPeriod>},
    {"fault_point",
     [](const R &r) {
         return dashUnless(!r.job.faultPoint.empty(), r.job.faultPoint);
     }},
    {"fault_rate",
     [](const R &r) { return strprintf("%.4f", r.job.faultRate); }},
    {"seed", runInt<&ExperimentConfig::seed>},
    {"status",
     [](const R &r) -> std::string { return jobStatusName(r.status); }},
    {"attempts", [](const R &r) { return std::to_string(r.attempts); }},
    {"error",
     [](const R &r) {
         return dashUnless(!r.error.empty(), csvSanitize(r.error));
     }},
    {"outcome",
     [](const R &r) {
         return dashUnless(r.status == JobStatus::Ok,
                           outcomeName(r.run.outcome));
     }},
    {"valid",
     [](const R &r) {
         return std::to_string(r.status == JobStatus::Ok && r.run.valid);
     }},
    {"rung",
     [](const R &r) {
         return dashUnless(
             r.status == JobStatus::Ok && !r.run.ladderRung.empty(),
             r.run.ladderRung);
     }},
    {"cycles", okCount<&RunResult::cycles>},
    {"seconds", okFixed<&RunResult::seconds, kSeconds>},
    {"hitm_events", okCount<&RunResult::hitmEvents>},
    {"pebs_records", okCount<&RunResult::pebsRecords>},
    {"pages_protected", okCount<&RunResult::pagesProtected>},
    {"commits", okCount<&RunResult::commits>},
    {"conflict_bytes", okCount<&RunResult::conflictBytes>},
    {"fault_fires", okCount<&RunResult::faultFires>},
    {"t2p_aborts", okCount<&RunResult::t2pAborts>},
    {"unrepairs", okCount<&RunResult::unrepairs>},
    {"watchdog_flushes", okCount<&RunResult::watchdogFlushes>},
    {"cow_fallbacks", okCount<&RunResult::cowFallbacks>},
    {"ladder_drops", okCount<&RunResult::ladderDrops>},
    // From the job config, not the journaled result, so shards
    // reproduce it bit-for-bit without journaling the strings.
    {"params",
     [](const R &r) {
         return csvSanitize(canonicalParamText(r.job.config.run.params));
     }},
    {"requests", okCount<&RunResult::requests>},
    {"sojourn_p50", okFixed<&RunResult::sojournP50, kSojourn>},
    {"sojourn_p99", okFixed<&RunResult::sojournP99, kSojourn>},
    {"sojourn_p999", okFixed<&RunResult::sojournP999, kSojourn>},
    {"plan_sites", okCount<&RunResult::planSites>},
    {"plan_applied", okCount<&RunResult::planAppliedSites>},
    {"plan_padding_bytes", okCount<&RunResult::planPaddingBytes>},
    {"plan_redirected", okCount<&RunResult::planRedirectedSites>},
    {"plan_profile_hitms", okCount<&RunResult::planProfileHitms>},
    {"placement",
     [](const R &r) -> std::string {
         return placementName(r.job.config.run.placement);
     }},
    {"txn_commits", okCount<&RunResult::txnCommits>},
    {"txn_aborts", okCount<&RunResult::txnAborts>},
    // Abort rate as a fraction of txn attempts: the placement
    // sensitivity tables compare this across policies.
    {"abort_rate",
     [](const R &r) {
         std::uint64_t tries = r.status == JobStatus::Ok
                                   ? r.run.txnCommits + r.run.txnAborts
                                   : 0;
         return strprintf("%.4f",
                          tries ? 1.0 * r.run.txnAborts / tries : 0.0);
     }},
    {"fallback_locks", okCount<&RunResult::txnFallbackLocks>},
};

} // namespace

const char *
sweepCsvHeader()
{
    static const std::string header = csvHeader(kSweepColumns);
    return header.c_str();
}

std::string
sweepCsvRow(const JobResult &r)
{
    return csvRow(kSweepColumns, r);
}

SweepCsvSink::SweepCsvSink(std::ostream &os) : _os(&os)
{
    *_os << sweepCsvHeader() << '\n';
}

SweepCsvSink::SweepCsvSink(const std::string &path,
                           std::uint64_t flushEvery)
    : _flushEvery(flushEvery ? flushEvery : 1)
{
    _file = std::fopen(path.c_str(), "w");
    if (_file)
        std::fprintf(_file, "%s\n", sweepCsvHeader());
}

SweepCsvSink::~SweepCsvSink()
{
    if (_file) {
        sync();
        std::fclose(_file);
    }
}

void
SweepCsvSink::onResult(const JobResult &result)
{
    if (_os) {
        *_os << sweepCsvRow(result) << '\n';
        return;
    }
    if (!_file)
        return;
    std::fprintf(_file, "%s\n", sweepCsvRow(result).c_str());
    if (++_sinceFlush >= _flushEvery)
        sync();
}

void
SweepCsvSink::sync()
{
    if (!_file)
        return;
    std::fflush(_file);
    ::fsync(fileno(_file));
    _sinceFlush = 0;
}

} // namespace tmi::driver
