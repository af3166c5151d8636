/**
 * @file
 * The one interface every repair runtime implements. A treatment's
 * row in the treatment table (core/experiment.cc) builds at most one
 * runtime from the cell's Config, right after the machine and before
 * the workload's init allocates its heap. Construction leaves
 * simulated state alone with one exception, which is why it comes
 * first: a layout repair (staticrepair::PlanApplier) installs its
 * alloc hook there, so it places the workload's first allocation.
 * The driver then attaches the runtime after init, runs the
 * simulation, lets it harvest its own RunResult fields once while the
 * machine is still alive, and asks it for its stats when the cell
 * wants a dump or a trace.
 */

#ifndef TMI_RUNTIME_REPAIR_RUNTIME_HH
#define TMI_RUNTIME_REPAIR_RUNTIME_HH

#include "common/stats.hh"
#include "core/experiment.hh"

namespace tmi
{

class RepairRuntime : public RuntimeHooks
{
  public:
    /** Install the hooks on the machine (plus any helper thread). */
    virtual void attach() = 0;

    /** Register the runtime's counters under @p group. */
    virtual void regStats(stats::StatGroup &group) = 0;

    /** Fill in the RunResult fields this runtime measures. Runs once,
     *  after the simulation; it may drain what the run left buffered
     *  (the static profiler's last PEBS records). */
    virtual void harvest(RunResult &res) = 0;
};

} // namespace tmi

#endif // TMI_RUNTIME_REPAIR_RUNTIME_HH
