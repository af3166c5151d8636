/**
 * @file
 * The plan applier: the huron-static replay's runtime, an AllocHook
 * that places profiled allocation sites according to a LayoutPlan.
 *
 * Pad sites are simply realigned and rounded up; Split/Spread sites
 * additionally install machine-level redirection segments so every
 * access to the original offsets lands on the repaired layout.
 * Memory comes from the machine's stock allocator (memalign), so the
 * application's free() of the returned base stays valid; a free drops
 * the site's segments.
 */

#ifndef TMI_STATICREPAIR_APPLIER_HH
#define TMI_STATICREPAIR_APPLIER_HH

#include <set>

#include "runtime/repair_runtime.hh"
#include "staticrepair/layout_plan.hh"

namespace tmi::staticrepair
{

/** Phase-2 allocation interceptor. */
class PlanApplier : public AllocHook, public RepairRuntime
{
  public:
    /** Installs itself as @p machine's alloc hook: built before the
     *  workload allocates, it places every allocation. */
    PlanApplier(Machine &machine, LayoutPlan plan);

    /** Nothing left to install: the alloc hook went in at
     *  construction, and the replay runs no helper thread. */
    void attach() override {}

    /** The applier keeps no counters of its own. */
    void regStats(stats::StatGroup &) override {}

    /** The plan and its apply telemetry (plan* fields, the padding
     *  as overheadBytes, the plan's text). */
    void harvest(RunResult &res) override;

    Addr onAlloc(ThreadId tid, const std::string &key,
                 std::uint64_t bytes, Addr alignment) override;
    void onFree(ThreadId tid, Addr base) override;

    /** @name Apply telemetry */
    /// @{
    /** Allocations placed by the plan. */
    std::uint64_t appliedSites() const { return _applied; }
    /** Extra bytes the repaired placements occupy. */
    std::uint64_t paddingBytes() const { return _padding; }
    /** Placed allocations that installed redirection segments. */
    std::uint64_t redirectedSites() const { return _redirected; }
    /// @}

  private:
    Machine &_m;
    LayoutPlan _plan;
    std::set<Addr> _placed; //!< bases with installed segments
    std::uint64_t _applied = 0;
    std::uint64_t _padding = 0;
    std::uint64_t _redirected = 0;
};

} // namespace tmi::staticrepair

#endif // TMI_STATICREPAIR_APPLIER_HH
