#include "applier.hh"

#include <algorithm>

namespace tmi::staticrepair
{

PlanApplier::PlanApplier(Machine &machine, LayoutPlan plan)
    : _m(machine), _plan(std::move(plan))
{
    _m.setAllocHook(this);
}

void
PlanApplier::harvest(RunResult &res)
{
    res.planSites = _plan.sites.size();
    res.planAppliedSites = _applied;
    res.planPaddingBytes = _padding;
    res.planRedirectedSites = _redirected;
    res.overheadBytes += _padding;
    res.planText = writePlan(_plan);
}

Addr
PlanApplier::onAlloc(ThreadId tid, const std::string &key,
                     std::uint64_t bytes, Addr alignment)
{
    const PlanSite *site = _plan.find(key, bytes);
    if (!site)
        return 0;
    LoweredSite low = lowerSite(*site);
    // Preserve any alignment the workload itself requested (e.g. a
    // page-aligned stat block) on top of the plan's line alignment.
    Addr align = std::max<Addr>(alignment, low.alignment);
    Addr base = _m.allocator().memalign(tid, align, low.newBytes);
    if (!low.segments.empty()) {
        std::vector<LayoutSegment> segs = low.segments;
        for (LayoutSegment &seg : segs) {
            seg.begin += base;
            seg.end += base;
        }
        _m.staticLayout().install(base, std::move(segs));
        _placed.insert(base);
        ++_redirected;
    }
    ++_applied;
    _padding += low.newBytes - bytes;
    return base;
}

void
PlanApplier::onFree(ThreadId tid, Addr base)
{
    (void)tid;
    if (_placed.erase(base))
        _m.staticLayout().remove(base);
}

} // namespace tmi::staticrepair
