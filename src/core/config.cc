/**
 * @file
 * Config aggregation + the fluent ExperimentBuilder.
 */

#include "core/config.hh"

namespace tmi
{

std::vector<ConfigError>
Config::validate() const
{
    std::vector<ConfigError> errors;
    validateConfig(run, errors, "run");
    validateConfig(machine, errors, "machine");
    validateConfig(tmi, errors, "tmi");
    return errors;
}

void
Config::validateOrDie() const
{
    fatalIfConfigErrors(validate());
}

ExperimentBuilder &
ExperimentBuilder::workload(const std::string &name)
{
    _config.run.workload = name;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::treatment(Treatment t)
{
    _config.run.treatment = t;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::threads(unsigned n)
{
    _config.run.threads = n;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::scale(std::uint64_t s)
{
    _config.run.scale = s;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::pageShift(unsigned shift)
{
    _config.run.pageShift = shift;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::allocator(AllocatorKind kind)
{
    _config.run.allocator = kind;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::placement(PlacementPolicy p)
{
    _config.run.placement = p;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::perfPeriod(std::uint64_t period)
{
    _config.run.perfPeriod = period;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::repairThreshold(double threshold)
{
    _config.run.repairThreshold = threshold;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::analysisInterval(Cycles interval)
{
    _config.run.analysisInterval = interval;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::budget(Cycles cycles)
{
    _config.run.budget = cycles;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::seed(std::uint64_t s)
{
    _config.run.seed = s;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::dumpStats(bool on)
{
    _config.run.dumpStats = on;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::param(const std::string &key,
                         const std::string &value)
{
    _config.run.params.emplace_back(key, value);
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::fault(const std::string &point, const FaultSpec &spec)
{
    _config.run.faults.emplace_back(point, spec);
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::faultSeed(std::uint64_t s)
{
    _config.run.faultSeed = s;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::watchdog(int mode)
{
    _config.run.watchdog = mode;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::monitor(int mode)
{
    _config.run.monitor = mode;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::machine(const MachineConfig &mc)
{
    _config.machine = mc;
    // Mirror the scalars the overlay would clobber, so a machine()
    // template is honored in full unless a later scalar setter
    // deliberately overrides part of it.
    _config.run.threads = mc.cores;
    _config.run.pageShift = mc.pageShift;
    _config.run.allocator = mc.allocator;
    _config.run.perfPeriod = mc.perf.period;
    _config.run.seed = mc.seed;
    _config.run.faults = mc.faults;
    _config.run.faultSeed = mc.faultSeed;
    _config.run.trace = mc.trace;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::runtime(const TmiConfig &tc)
{
    _config.tmi = tc;
    _config.run.repairThreshold = tc.detector.repairThreshold;
    _config.run.analysisInterval = tc.analysisInterval;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::detector(const DetectorConfig &dc)
{
    _config.tmi.detector = dc;
    _config.run.repairThreshold = dc.repairThreshold;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::robustness(const RobustnessConfig &rc)
{
    _config.tmi.robust = rc;
    // The run-level -1/0/1 overrides default to "keep the template".
    _config.run.watchdog = rc.watchdogEnabled ? 1 : 0;
    _config.run.monitor = rc.monitorEnabled ? 1 : 0;
    _config.run.watchdogTimeout = rc.watchdogTimeout;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::trace(const obs::TraceConfig &tc)
{
    _config.run.trace = tc;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::trace(bool enabled)
{
    _config.run.trace.enabled = enabled;
    return *this;
}

std::vector<ConfigError>
ExperimentBuilder::check() const
{
    return _config.validate();
}

Config
ExperimentBuilder::build() const
{
    _config.validateOrDie();
    return _config;
}

RunResult
ExperimentBuilder::run() const
{
    return runExperiment(build());
}

} // namespace tmi
