#include "sweep.hh"

#include <cstdio>
#include <sstream>

#include "common/parse_number.hh"
#include "workloads/workload.hh"

namespace tmi::driver
{

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::TimedOut:
        return "timeout";
      case JobStatus::Cancelled:
        return "cancelled";
      case JobStatus::Poisoned:
        return "poisoned";
    }
    return "?";
}

std::string
Job::scenario() const
{
    if (faultPoint.empty() || faultRate <= 0.0)
        return "none";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s@%.2f", faultPoint.c_str(),
                  faultRate);
    return buf;
}

namespace
{

/** The effective value list for an axis: the spec's, or the base
 *  config's single value when the axis is not swept. */
template <typename T>
std::vector<T>
axisOr(const std::vector<T> &axis, T fallback)
{
    if (!axis.empty())
        return axis;
    return {fallback};
}

} // namespace

std::uint64_t
SweepSpec::matrixSize() const
{
    if (workloads.empty())
        return 0;
    std::uint64_t n = workloads.size();
    n *= treatments.empty() ? 1 : treatments.size();
    n *= placements.empty() ? 1 : placements.size();
    n *= scales.empty() ? 1 : scales.size();
    n *= periods.empty() ? 1 : periods.size();
    n *= faultPoints.empty() ? 1 : faultPoints.size();
    n *= faultRates.empty() ? 1 : faultRates.size();
    n *= seeds.empty() ? 1 : seeds.size();
    return n;
}

std::vector<ConfigError>
SweepSpec::validate() const
{
    std::vector<ConfigError> errors;
    if (workloads.empty()) {
        errors.push_back({"SweepSpec.workloads",
                          "must name at least one workload"});
    }
    for (const std::string &w : workloads) {
        if (!tryFindWorkload(w)) {
            errors.push_back({"SweepSpec.workloads",
                              "unknown workload '" + w + "'"});
        }
    }
    for (std::uint64_t s : scales) {
        if (s == 0)
            errors.push_back({"SweepSpec.scales", "must be >= 1"});
    }
    for (std::uint64_t p : periods) {
        if (p == 0)
            errors.push_back({"SweepSpec.periods", "must be >= 1"});
    }
    for (const std::string &p : faultPoints) {
        std::string why = FaultInjector::unknownPointError(p);
        if (!why.empty())
            errors.push_back({"SweepSpec.faultPoints", why});
    }
    for (double r : faultRates) {
        if (r < 0.0 || r > 1.0) {
            errors.push_back({"SweepSpec.faultRates",
                              "probabilities must be in [0, 1]"});
        }
    }
    if (!faultRates.empty() && faultPoints.empty()) {
        bool any_nonzero = false;
        for (double r : faultRates)
            any_nonzero = any_nonzero || r > 0.0;
        if (any_nonzero) {
            errors.push_back({"SweepSpec.faultRates",
                              "nonzero rates need fault_points to "
                              "arm"});
        }
    }
    // Per-cell constraints that do not depend on the axes are checked
    // once on the base config (with a workload patched in so a blank
    // base does not double-report).
    Config probe = base;
    if (!workloads.empty())
        probe.run.workload = workloads.front();
    if (!treatments.empty())
        probe.run.treatment = treatments.front();
    if (!placements.empty())
        probe.run.placement = placements.front();
    if (!scales.empty())
        probe.run.scale = scales.front();
    if (!periods.empty())
        probe.run.perfPeriod = periods.front();
    for (ConfigError &e : probe.validate())
        errors.push_back(std::move(e));
    return errors;
}

std::vector<Job>
SweepSpec::expand() const
{
    const auto wls = workloads;
    const auto trs = axisOr(treatments, base.run.treatment);
    const auto pls = axisOr(placements, base.run.placement);
    const auto scs = axisOr(scales, base.run.scale);
    const auto pds = axisOr(periods, base.run.perfPeriod);
    const auto fps = axisOr(faultPoints, std::string{});
    const auto frs = axisOr(faultRates, 0.0);
    const auto sds = axisOr(seeds, base.run.seed);

    std::vector<Job> jobs;
    jobs.reserve(matrixSize());
    for (const std::string &w : wls) {
      for (Treatment t : trs) {
        for (PlacementPolicy pl : pls) {
            for (std::uint64_t sc : scs) {
                for (std::uint64_t pd : pds) {
                    for (const std::string &fp : fps) {
                        for (double fr : frs) {
                            for (std::uint64_t sd : sds) {
                                Job job;
                                job.id = jobs.size();
                                job.config = base;
                                job.config.run.workload = w;
                                job.config.run.treatment = t;
                                job.config.run.placement = pl;
                                job.config.run.scale = sc;
                                job.config.run.perfPeriod = pd;
                                job.config.run.seed = sd;
                                job.faultPoint = fp;
                                job.faultRate = fr;
                                if (!fp.empty() && fr > 0.0) {
                                    job.config.run.faults.emplace_back(
                                        fp,
                                        FaultSpec::withProbability(
                                            fr));
                                }
                                jobs.push_back(std::move(job));
                            }
                        }
                    }
                }
            }
        }
      }
    }
    return jobs;
}

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(csv);
    while (std::getline(is, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

namespace
{

/** Parse each item of a comma list with @p parseOne(item, value, err);
 *  false on the first bad one. */
template <typename T, typename ParseOne>
bool
parseEach(const std::string &csv, std::vector<T> &out, std::string &err,
          ParseOne parseOne)
{
    for (const std::string &item : splitList(csv)) {
        T v{};
        if (!parseOne(item, v, err))
            return false;
        out.push_back(v);
    }
    return true;
}

/** @p item as the member of @p all that @p nameOf names; the error
 *  lists every valid name. */
template <typename T>
bool
parseName(const std::string &item, T &out, std::string &err,
          const std::vector<T> &all, const char *(*nameOf)(T),
          const char *kind)
{
    for (T t : all) {
        if (item == nameOf(t)) {
            out = t;
            return true;
        }
    }
    err = std::string("unknown ") + kind + " '" + item + "' (one of:";
    for (T t : all)
        err += std::string(" ") + nameOf(t);
    err += ")";
    return false;
}

const auto kNumber = [](const std::string &item, auto &v,
                        std::string &err) {
    return parseNumber(item, v, err);
};

} // namespace

bool
parseU64List(const std::string &csv, std::vector<std::uint64_t> &out,
             std::string &err)
{
    return parseEach(csv, out, err, kNumber);
}

bool
parseDoubleList(const std::string &csv, std::vector<double> &out,
                std::string &err)
{
    return parseEach(csv, out, err, kNumber);
}

bool
parseTreatmentList(const std::string &csv,
                   std::vector<Treatment> &out, std::string &err)
{
    return parseEach(csv, out, err,
                     [](const std::string &item, Treatment &t,
                        std::string &e) {
                         return parseName(item, t, e, allTreatments(),
                                          treatmentName, "treatment");
                     });
}

bool
parsePlacementList(const std::string &csv,
                   std::vector<PlacementPolicy> &out, std::string &err)
{
    return parseEach(csv, out, err,
                     [](const std::string &item, PlacementPolicy &p,
                        std::string &e) {
                         return parseName(item, p, e, allPlacements(),
                                          placementName, "placement");
                     });
}

bool
applySpecEntry(SweepSpec &spec, const std::string &key,
               const std::string &value, std::string &err)
{
    std::string k = trim(key);
    std::string v = trim(value);
    if (k == "workloads") {
        for (std::string &w : splitList(v)) {
            // "family:NAME" expands to every workload tagged with
            // that family, in registry order, at parse time -- so
            // matrixSize()/expand() and the spec echo all see the
            // concrete list.
            if (w.rfind("family:", 0) == 0) {
                std::string fam = trim(w.substr(7));
                std::vector<std::string> members =
                    workloadsInFamily(fam);
                if (members.empty()) {
                    err = "unknown workload family '" + fam +
                          "' (known:";
                    for (const std::string &f : workloadFamilies())
                        err += " " + f;
                    err += ")";
                    return false;
                }
                for (std::string &m : members)
                    spec.workloads.push_back(std::move(m));
                continue;
            }
            spec.workloads.push_back(std::move(w));
        }
        return true;
    }
    if (k == "param") {
        // One workload knob: "param = key=value". The spec parser
        // split the line at its FIRST '=', so the remainder of the
        // assignment arrives intact in @p value here.
        std::pair<std::string, std::string> kv;
        if (!parseParamAssignment(v, kv, err))
            return false;
        spec.base.run.params.push_back(std::move(kv));
        return true;
    }
    if (k == "treatments")
        return parseTreatmentList(v, spec.treatments, err);
    if (k == "placements")
        return parsePlacementList(v, spec.placements, err);
    if (k == "scales")
        return parseU64List(v, spec.scales, err);
    if (k == "periods")
        return parseU64List(v, spec.periods, err);
    if (k == "fault_points") {
        for (std::string &p : splitList(v))
            spec.faultPoints.push_back(std::move(p));
        return true;
    }
    if (k == "fault_rates")
        return parseDoubleList(v, spec.faultRates, err);
    if (k == "seeds")
        return parseU64List(v, spec.seeds, err);

    // Base-config scalars (single values, not axes), each parsed as
    // its field's own type: "threads = 4294967297" is an error, not 1.
    ExperimentConfig &run = spec.base.run;
    auto scalar = [&](auto &field) { return parseNumber(v, field, err); };
    if (k == "threads")
        return scalar(run.threads);
    if (k == "budget")
        return scalar(run.budget);
    if (k == "interval")
        return scalar(run.analysisInterval);
    if (k == "period")
        return scalar(run.perfPeriod);
    if (k == "seed")
        return scalar(run.seed);
    if (k == "watchdog")
        return scalar(run.watchdog);
    if (k == "monitor")
        return scalar(run.monitor);
    err = "unknown spec key '" + k + "'";
    return false;
}

bool
parseSpecText(SweepSpec &spec, const std::string &text,
              std::string &err)
{
    std::istringstream is(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            err = "line " + std::to_string(lineno) +
                  ": expected key = value";
            return false;
        }
        std::string entry_err;
        if (!applySpecEntry(spec, line.substr(0, eq),
                            line.substr(eq + 1), entry_err)) {
            err = "line " + std::to_string(lineno) + ": " + entry_err;
            return false;
        }
    }
    return true;
}

} // namespace tmi::driver
