/**
 * @file
 * The one interface every repair runtime implements. A treatment's
 * row in the treatment table (core/experiment.cc) builds at most one
 * runtime from the cell's Config; the driver then attaches it after
 * the workload initialized its heap, runs the simulation, lets it
 * harvest its own RunResult fields while the machine is still alive,
 * and asks it for its stats when the cell wants a dump or a trace.
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

    /** Fill in the RunResult fields this runtime measures. */
    virtual void harvest(RunResult &res) const = 0;
};

} // namespace tmi

#endif // TMI_RUNTIME_REPAIR_RUNTIME_HH
