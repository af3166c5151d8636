#include "profiler.hh"

#include <algorithm>
#include <map>

#include "staticrepair/planner.hh"

namespace tmi::staticrepair
{

StaticProfiler::StaticProfiler(Machine &machine,
                               const ProfilerConfig &config)
    : _m(machine), _cfg(config),
      _detector(machine.instructions(), machine.addressMap(),
                config.detector)
{}

void
StaticProfiler::attach()
{
    _m.spawnSystemThread(
        "static-profiler", [this](ThreadApi &) { loop(); },
        /*daemon=*/true);
}

void
StaticProfiler::loop()
{
    // The TMI detection loop, minus the repair arm: drain, classify,
    // analyze, charge the cost -- and never nominate a page.
    Cycles last = _m.sched().now();
    std::vector<PebsRecord> records;
    while (true) {
        _m.sched().sleepUntil(last + _cfg.analysisInterval);
        Cycles now = _m.sched().now();
        Cycles window = now - last;
        last = now;
        records.clear();
        _m.perf().drainAll(records);
        Cycles cost = 0;
        for (const PebsRecord &rec : records)
            cost += _detector.consume(rec);
        AnalysisResult res = _detector.analyze(window);
        cost += res.cost;
        _m.sched().advance(cost);
    }
}

void
StaticProfiler::harvest(RunResult &res)
{
    res.planProfileHitms = res.hitmEvents;
    if (res.outcome == RunOutcome::Completed)
        res.planText = writePlan(LayoutPlanner().plan(profile()));
}

LayoutProfile
StaticProfiler::profile()
{
    // Records sampled after the daemon's last wakeup would otherwise
    // be lost; classification cost no longer matters post-run.
    std::vector<PebsRecord> leftovers;
    _m.perf().drainAll(leftovers);
    for (const PebsRecord &rec : leftovers)
        _detector.consume(rec);

    LayoutProfile profile;
    std::map<std::string, SiteProfile> bySite;
    std::vector<LineReport> lines =
        _detector.topContendedLines(_cfg.maxLines);
    profile.contendedLines = lines.size();
    for (const LineReport &line : lines) {
        // A line attributes to every live allocation it overlaps
        // (allocator packing puts several small objects on one line).
        bool attributed = false;
        std::map<std::string, bool> credited;
        for (const ReportedAccess &acc : line.accesses) {
            Addr addr = line.lineAddr + acc.offset;
            const AllocationRecord *rec = _m.findAllocation(addr);
            if (!rec)
                continue;
            attributed = true;
            SiteProfile &site = bySite[rec->site];
            if (site.key.empty()) {
                site.key = rec->site;
                site.bytes = rec->bytes;
                std::string name =
                    rec->site.substr(0, rec->site.find('#'));
                if (const ArraySiteGeom *geom = _m.arraySite(name)) {
                    site.hasGeometry = true;
                    site.geometry = *geom;
                }
            }
            site.accesses.push_back({acc.tid, addr - rec->base,
                                     acc.width, acc.isWrite,
                                     acc.samples});
            if (!credited[rec->site]) {
                credited[rec->site] = true;
                site.fsEvents += line.fsEvents;
                site.tsEvents += line.tsEvents;
            }
        }
        if (!attributed)
            ++profile.unattributedLines;
    }
    for (auto &[key, site] : bySite) {
        std::sort(site.accesses.begin(), site.accesses.end(),
                  [](const ProfileAccess &a, const ProfileAccess &b) {
                      if (a.offset != b.offset)
                          return a.offset < b.offset;
                      if (a.tid != b.tid)
                          return a.tid < b.tid;
                      if (a.width != b.width)
                          return a.width < b.width;
                      return a.isWrite < b.isWrite;
                  });
        profile.sites.push_back(std::move(site));
    }
    return profile;
}

} // namespace tmi::staticrepair
