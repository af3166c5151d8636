/**
 * @file
 * The profiling daemon for static repair: TMI's detection loop with
 * the repair arm cut off. It drains PEBS records on the detector's
 * cadence and charges classification/analysis cost to its own system
 * thread, so a profiling run models the in-house profiling tax; at
 * run end, harvest() attributes the contended lines to allocation
 * sites through the machine's allocation log and plans the layout
 * the replay applies.
 */

#ifndef TMI_STATICREPAIR_PROFILER_HH
#define TMI_STATICREPAIR_PROFILER_HH

#include "detect/detector.hh"
#include "runtime/repair_runtime.hh"
#include "staticrepair/profile.hh"

namespace tmi::staticrepair
{

/** Profiling-pass tuning. */
struct ProfilerConfig
{
    DetectorConfig detector;
    /** Drain/analyze cadence (matches the TMI runtime default). */
    Cycles analysisInterval = 2'000'000;
    /** Hottest lines harvested into the profile. */
    std::size_t maxLines = 64;

    bool operator==(const ProfilerConfig &) const = default;
};

/** Phase-1 profiler: observe, never repair. */
class StaticProfiler : public RepairRuntime
{
  public:
    StaticProfiler(Machine &machine, const ProfilerConfig &config);

    /** Spawn the daemon detection thread. */
    void attach() override;

    /** The profiler keeps no counters of its own. */
    void regStats(stats::StatGroup &) override {}

    /**
     * Record the run's HITMs as the profile's; if the run completed,
     * also plan the layout from the profile into planText. A wedged
     * run's evidence is partial, so it plans nothing.
     */
    void harvest(RunResult &res) override;

  private:
    void loop();

    /**
     * Drain any leftover records, then attribute the hottest
     * contended lines to the live allocations covering them.
     */
    LayoutProfile profile();

    Machine &_m;
    ProfilerConfig _cfg;
    Detector _detector;
};

} // namespace tmi::staticrepair

#endif // TMI_STATICREPAIR_PROFILER_HH
