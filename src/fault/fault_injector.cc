#include "fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace tmi
{

namespace
{

/**
 * The canonical registry, in documentation order (perf, mem, ptsb,
 * sched, alloc, htm). Adding a fault point means adding a
 * faultpoint:: constant, an entry here, and the call-site query --
 * tests assert the three stay in sync.
 */
constexpr FaultPointInfo kAllPoints[] = {
    {faultpoint::perfRingOverflow,
     "PEBS ring full: record dropped and counted lost"},
    {faultpoint::perfDropRecord,
     "PEBS assist loses the record entirely"},
    {faultpoint::perfCorruptAddr,
     "sampled data address corrupted beyond normal skid"},
    {faultpoint::perfWildPc,
     "sampled PC misses the instruction table"},
    {faultpoint::memFrameExhausted,
     "no physical frame for a COW fault"},
    {faultpoint::memCloneFail,
     "fork() fails while cloning an address space mid-T2P"},
    {faultpoint::ptsbTwinAllocFail,
     "twin snapshot allocation fails at a COW fault"},
    {faultpoint::ptsbOversizeCommit,
     "a PTSB commit degenerates and its cost inflates"},
    {faultpoint::schedStopTimeout,
     "a thread refuses to stop at the T2P stop point"},
    {faultpoint::allocMetadataCorrupt,
     "allocator per-object metadata corrupted at free()"},
    {faultpoint::allocSizeClassExhausted,
     "a size class cannot refill its slab"},
    {faultpoint::htmSpuriousAbort,
     "a speculative region aborts with no architectural cause"},
    {faultpoint::htmCapacityMisaccount,
     "txn capacity accounting books a touched line twice"},
    {faultpoint::htmFallbackStuck,
     "the fallback path refuses the real lock and re-enters retry"},
};

} // namespace

std::span<const FaultPointInfo>
FaultInjector::allPoints()
{
    return kAllPoints;
}

std::string
FaultInjector::unknownPointError(std::string_view point)
{
    std::string known;
    for (const FaultPointInfo &info : kAllPoints) {
        if (point == info.name)
            return "";
        known += known.empty() ? "" : ", ";
        known += info.name;
    }
    return "unknown fault point '" + std::string(point) + "' (one of: " +
           known + ")";
}

namespace
{

/** FNV-1a over the point name: stable across runs and platforms. */
std::uint64_t
hashName(std::string_view name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

FaultInjector::FaultInjector(std::uint64_t seed) : _seed(seed) {}

void
FaultInjector::arm(std::string_view point, const FaultSpec &spec)
{
    TMI_ASSERT(!point.empty(), "fault point needs a name");
    // Derive the stream from (seed, name) only: the fire pattern of
    // one point is independent of what else is armed or queried.
    std::uint64_t stream_seed = _seed ^ hashName(point);
    _points.insert_or_assign(std::string(point),
                             Point(spec, stream_seed));
    inform("fault: armed %s (p=%.3g fireAt=%lu everyNth=%lu "
           "maxFires=%lu window=[%lu,%lu) burst=%lu/%lu)",
           std::string(point).c_str(), spec.probability,
           static_cast<unsigned long>(spec.fireAt),
           static_cast<unsigned long>(spec.everyNth),
           static_cast<unsigned long>(spec.maxFires),
           static_cast<unsigned long>(spec.windowStart),
           static_cast<unsigned long>(spec.windowEnd),
           static_cast<unsigned long>(spec.burstLen),
           static_cast<unsigned long>(spec.burstPeriod));
}

void
FaultInjector::disarm(std::string_view point)
{
    _points.erase(std::string(point));
}

bool
FaultInjector::shouldFail(std::string_view point)
{
    if (_points.empty())
        return false;
    auto it = _points.find(std::string(point));
    if (it == _points.end())
        return false;

    Point &p = it->second;
    ++p.queries;
    ++_statQueries;

    // Draw the random trigger unconditionally (when armed) so the
    // stream position is a pure function of the query index.
    bool fired = p.spec.probability > 0.0 &&
                 p.rng.chance(p.spec.probability);
    if (p.spec.fireAt != 0 && p.queries == p.spec.fireAt)
        fired = true;
    if (p.spec.everyNth != 0 && p.queries % p.spec.everyNth == 0)
        fired = true;
    if (p.spec.burstPeriod != 0 &&
        (p.queries - 1) % p.spec.burstPeriod < p.spec.burstLen) {
        fired = true;
    }
    // The firing window gates the composed triggers but never the
    // draw above: a windowed point's stream position stays a pure
    // function of its query index.
    if (fired &&
        (p.spec.windowStart != 0 || p.spec.windowEnd != 0)) {
        std::uint64_t now = _clock ? _clock() : 0;
        bool inside = now >= p.spec.windowStart &&
                      (p.spec.windowEnd == 0 ||
                       now < p.spec.windowEnd);
        if (!inside || !_clock)
            fired = false;
    }
    if (fired && p.spec.maxFires != 0 && p.fires >= p.spec.maxFires)
        fired = false;
    if (!fired)
        return false;

    ++p.fires;
    ++_statFires;
    if (_trace) {
        _trace->recordHere(obs::EventKind::FaultFire, p.fires, 0,
                           it->first.c_str());
    }
    return true;
}

const FaultInjector::Point *
FaultInjector::findPoint(std::string_view point) const
{
    auto it = _points.find(std::string(point));
    return it == _points.end() ? nullptr : &it->second;
}

std::uint64_t
FaultInjector::queries(std::string_view point) const
{
    const Point *p = findPoint(point);
    return p ? p->queries : 0;
}

std::uint64_t
FaultInjector::fires(std::string_view point) const
{
    const Point *p = findPoint(point);
    return p ? p->fires : 0;
}

std::vector<std::string>
FaultInjector::armedPoints() const
{
    std::vector<std::string> names;
    names.reserve(_points.size());
    for (const auto &[name, point] : _points)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

void
FaultInjector::regStats(stats::StatGroup &group)
{
    group.addScalar("faultQueries", &_statQueries,
                    "fault-point queries on armed points");
    group.addScalar("faultFires", &_statFires,
                    "fault-point fires (injected failures)");
}

} // namespace tmi
