#include "schedule.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/rng.hh"
#include "fault/fault_injector.hh"

namespace tmi::chaos
{

Config
ChaosSchedule::toConfig(const Config &base) const
{
    Config config = base;
    config.run.workload = workload;
    config.run.treatment = treatment;
    config.run.threads = threads;
    config.run.scale = scale;
    config.run.seed = seed;
    config.run.budget = budget;
    config.run.faultSeed = faultSeed;
    config.run.sheriffBuggyDissolve = sheriffBuggyDissolve;
    if (watchdog != -1)
        config.run.watchdog = watchdog;
    if (monitor != -1)
        config.run.monitor = monitor;
    if (watchdogTimeout != 0)
        config.run.watchdogTimeout = watchdogTimeout;
    if (analysisInterval != 0)
        config.run.analysisInterval = analysisInterval;
    if (recoverUpWindows != 0)
        config.tmi.robust.recoverUpWindows = recoverUpWindows;
    config.run.faults.clear();
    for (const ChaosEvent &ev : events)
        config.run.faults.emplace_back(ev.point, ev.spec);
    return config;
}

std::string
ChaosSchedule::summary() const
{
    std::ostringstream os;
    os << workload << "/" << treatmentName(treatment) << " #" << index
       << ": " << events.size()
       << (events.size() == 1 ? " event" : " events");
    return os.str();
}

ScheduleGenerator::ScheduleGenerator(std::uint64_t campaignSeed,
                                     const GeneratorOptions &options)
    : _seed(campaignSeed), _opts(options)
{
    if (_opts.minEvents < 1 || _opts.maxEvents < _opts.minEvents) {
        fatal("ScheduleGenerator: event range [%u, %u] is invalid",
              _opts.minEvents, _opts.maxEvents);
    }
}

namespace
{

/** FNV-1a over the index, mixed into the campaign seed, so that
 *  schedule k depends on nothing but (seed, k). */
std::uint64_t
drawSeed(std::uint64_t campaign_seed, std::uint64_t index)
{
    return campaign_seed ^ Fnv1a().u64(index).h;
}

} // namespace

ChaosSchedule
ScheduleGenerator::generate(std::uint64_t index, Cycles horizon) const
{
    Rng rng(drawSeed(_seed, index));
    ChaosSchedule sched;
    sched.campaignSeed = _seed;
    sched.index = index;
    sched.faultSeed = rng.next();

    auto points = FaultInjector::allPoints();
    unsigned max_events = std::min<unsigned>(
        _opts.maxEvents, static_cast<unsigned>(points.size()));
    unsigned min_events = std::min(_opts.minEvents, max_events);
    unsigned n = static_cast<unsigned>(
        rng.range(min_events, max_events));

    // Draw n distinct points: partial Fisher-Yates over the registry
    // indices. One spec per point keeps arm() semantics simple and
    // makes every event independently removable by the minimizer.
    std::vector<unsigned> order(points.size());
    for (unsigned i = 0; i < order.size(); ++i)
        order[i] = i;
    for (unsigned i = 0; i < n; ++i) {
        unsigned j = static_cast<unsigned>(
            rng.range(i, order.size() - 1));
        std::swap(order[i], order[j]);
    }

    for (unsigned i = 0; i < n; ++i) {
        ChaosEvent ev;
        ev.point = points[order[i]].name;

        // Trigger mix: mostly random-rate faults, with every-Nth,
        // burst, and one-shot flavors to exercise clustered and
        // point-in-time failures too.
        std::uint64_t mode = rng.below(10);
        if (mode < 5) {
            // Log-uniform rate: chaos cares as much about rare
            // faults as about storms.
            double lo = std::log(_opts.minProbability);
            double hi = std::log(_opts.maxProbability);
            ev.spec.probability =
                std::exp(lo + (hi - lo) * rng.uniform());
        } else if (mode < 7) {
            ev.spec.everyNth = rng.range(8, 512);
        } else if (mode < 9) {
            ev.spec.burstPeriod = rng.range(16, 256);
            ev.spec.burstLen =
                rng.range(2, std::min<std::uint64_t>(
                                 8, ev.spec.burstPeriod));
        } else {
            ev.spec.fireAt = rng.range(1, 64);
            ev.spec.maxFires = 1;
        }

        // A capped point models a transient failure that clears up.
        if (ev.spec.maxFires == 0 && rng.chance(0.25))
            ev.spec.maxFires = rng.range(1, 8);

        if (horizon != 0 && rng.chance(_opts.windowFraction)) {
            // Window somewhere inside the fault-free makespan; start
            // can be 0 ("from the beginning") but end stays bounded
            // so the run gets a clean tail to recover in.
            std::uint64_t start = rng.below(horizon / 2 + 1);
            std::uint64_t len =
                rng.range(horizon / 8 + 1, horizon / 2 + 1);
            ev.spec.windowStart = start;
            ev.spec.windowEnd = start + len;
        }

        sched.events.push_back(std::move(ev));
    }
    return sched;
}

namespace
{

/**
 * Call @p f(key, field, default, always) for each run-cell scalar of
 * the spec text, in write order: the one list both the writer and the
 * parser read. The writer omits a field equal to its default unless
 * @p always; a bool is written as 0/1.
 */
template <typename S, typename F>
void
forEachScalar(S &s, const ChaosSchedule &d, F &&f)
{
    f("threads", s.threads, d.threads, true);
    f("scale", s.scale, d.scale, true);
    f("seed", s.seed, d.seed, true);
    f("budget", s.budget, d.budget, true);
    f("fault_seed", s.faultSeed, d.faultSeed, true);
    f("buggy_dissolve", s.sheriffBuggyDissolve, d.sheriffBuggyDissolve,
      false);
    f("watchdog", s.watchdog, d.watchdog, false);
    f("monitor", s.monitor, d.monitor, false);
    f("watchdog_timeout", s.watchdogTimeout, d.watchdogTimeout, false);
    f("interval", s.analysisInterval, d.analysisInterval, false);
    f("recover_up", s.recoverUpWindows, d.recoverUpWindows, false);
    f("campaign_seed", s.campaignSeed, d.campaignSeed, false);
    f("index", s.index, d.index, false);
}

} // namespace

std::string
writeScheduleSpec(const ChaosSchedule &sched)
{
    std::ostringstream os;
    os << "# tmi-chaos schedule (replay: tmi-chaos replay <file>)\n";
    os << "workload = " << sched.workload << "\n";
    os << "treatment = " << treatmentName(sched.treatment) << "\n";
    const ChaosSchedule defaults;
    forEachScalar(sched, defaults,
                  [&](const char *key, const auto &v, const auto &d,
                      bool always) {
                      if (always || v != d)
                          os << key << " = " << v << "\n";
                  });
    for (const ChaosEvent &ev : sched.events) {
        os << "event = " << ev.point;
        const FaultSpec &s = ev.spec;
        char buf[160];
        if (s.probability != 0) {
            // %.17g round-trips any double exactly.
            std::snprintf(buf, sizeof(buf), " p=%.17g",
                          s.probability);
            os << buf;
        }
        if (s.fireAt != 0)
            os << " at=" << s.fireAt;
        if (s.everyNth != 0)
            os << " every=" << s.everyNth;
        if (s.maxFires != 0)
            os << " max=" << s.maxFires;
        if (s.burstPeriod != 0) {
            os << " burst=" << s.burstLen << "/" << s.burstPeriod;
        }
        if (s.windowStart != 0 || s.windowEnd != 0) {
            os << " window=" << s.windowStart << ":" << s.windowEnd;
        }
        os << "\n";
    }
    return os.str();
}

namespace
{

/** Strip leading/trailing whitespace. */
std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Parse "A<sep>B" as two numbers. */
bool
parsePair(const std::string &val, char sep, std::uint64_t &a,
          std::uint64_t &b)
{
    std::size_t at = val.find(sep);
    return at != std::string::npos &&
           parseNumber(val.substr(0, at), a) &&
           parseNumber(val.substr(at + 1), b);
}

/** One event attribute "key=val"; false on a bad key or value. */
bool
parseAttribute(const std::string &key, const std::string &val,
               FaultSpec &spec)
{
    if (key == "p")
        return parseNumber(val, spec.probability);
    if (key == "at")
        return parseNumber(val, spec.fireAt);
    if (key == "every")
        return parseNumber(val, spec.everyNth);
    if (key == "max")
        return parseNumber(val, spec.maxFires);
    // The writer omits a burst whose period is zero, so one that
    // reads back must have a period.
    if (key == "burst") {
        return parsePair(val, '/', spec.burstLen, spec.burstPeriod) &&
               spec.burstPeriod != 0;
    }
    if (key == "window")
        return parsePair(val, ':', spec.windowStart, spec.windowEnd);
    return false;
}

/** Parse one "event = point k=v k=v ..." value. */
bool
parseEvent(const std::string &value, ChaosEvent &ev, std::string &err)
{
    std::istringstream is(value);
    std::string token;
    if (!(is >> token)) {
        err = "event needs a fault-point name";
        return false;
    }
    ev.point = token;
    while (is >> token) {
        auto eq = token.find('=');
        if (eq == std::string::npos ||
            !parseAttribute(token.substr(0, eq), token.substr(eq + 1),
                            ev.spec)) {
            err = "bad event attribute '" + token +
                  "' (p=X at=N every=N max=N burst=LEN/PERIOD "
                  "window=START:END)";
            return false;
        }
    }
    return true;
}

/** One run-cell scalar "key = value", parsed as its field's type;
 *  false on a bad key or value. */
bool
parseScalar(const std::string &key, const std::string &value,
            ChaosSchedule &sched)
{
    bool ok = false;
    forEachScalar(sched, ChaosSchedule{},
                  [&](const char *k, auto &field, const auto &, bool) {
                      if (key != k)
                          return;
                      if constexpr (std::is_same_v<decltype(field),
                                                   bool &>) {
                          std::uint64_t on = 0;
                          ok = parseNumber(value, on);
                          field = on != 0;
                      } else {
                          ok = parseNumber(value, field);
                      }
                  });
    return ok;
}

} // namespace

bool
parseScheduleSpec(const std::string &text, ChaosSchedule &sched,
                  std::string &err)
{
    sched = ChaosSchedule{};
    std::istringstream is(text);
    std::string line;
    unsigned lineno = 0;
    bool saw_workload = false;
    while (std::getline(is, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos) {
            err = "line " + std::to_string(lineno) +
                  ": expected 'key = value'";
            return false;
        }
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        std::string detail;
        if (key == "workload") {
            sched.workload = value;
            saw_workload = true;
        } else if (key == "treatment") {
            const Treatment *t = tryParseTreatment(value);
            if (!t) {
                err = "line " + std::to_string(lineno) +
                      ": unknown treatment '" + value + "'";
                return false;
            }
            sched.treatment = *t;
        } else if (key == "event") {
            ChaosEvent ev;
            if (!parseEvent(value, ev, detail)) {
                err = "line " + std::to_string(lineno) + ": " +
                      detail;
                return false;
            }
            sched.events.push_back(std::move(ev));
        } else if (!parseScalar(key, value, sched)) {
            err = "line " + std::to_string(lineno) +
                  ": bad key or value in '" + line + "'";
            return false;
        }
    }
    if (!saw_workload) {
        err = "schedule spec never set 'workload'";
        return false;
    }
    return true;
}

} // namespace tmi::chaos
