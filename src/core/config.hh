/**
 * @file
 * The unified experiment configuration: one aggregate that carries
 * everything a run needs, validated as a whole, built fluently.
 *
 * Config layers three structs:
 *
 *  - run: the per-cell scalars (workload, treatment, threads, ...)
 *    that the evaluation matrix sweeps over;
 *  - machine: a full MachineConfig *template* for the deep knobs
 *    (cache geometry, TLB, sync costs, PEBS internals);
 *  - tmi: a full TmiConfig template for the runtime's deep knobs
 *    (PTSB costs, robustness ladder, detector internals).
 *
 * Override rule (simple and always the same): runExperiment() starts
 * from the templates and then overlays every run.* scalar on top --
 * run.threads wins over machine.cores, run.perfPeriod over
 * machine.perf.period, run.repairThreshold over
 * tmi.detector.repairThreshold, run.trace over machine.trace, and so
 * on. The ExperimentBuilder keeps the two views consistent: its
 * template setters (machine(), detector(), runtime(), ...) mirror the
 * affected scalars back into run so a later scalar setter still wins
 * and build() round-trips.
 *
 * validate() aggregates every per-module validator into one list of
 * ConfigError {field, message} pairs instead of dying on the first
 * problem; validateOrDie() is the fail-fast wrapper the constructors
 * use.
 */

#ifndef TMI_CORE_CONFIG_HH
#define TMI_CORE_CONFIG_HH

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "runtime/tmi_runtime.hh"

namespace tmi
{

/** The complete, validated description of one experiment run. */
struct Config
{
    /** Per-cell scalars; authoritative over the templates below. */
    ExperimentConfig run;
    /** Deep machine template (cache/TLB/sync/PEBS internals). */
    MachineConfig machine;
    /** Deep runtime template, used by the Tmi treatments. */
    TmiConfig tmi;

    bool operator==(const Config &) const = default;

    /** Every constraint violation across run, machine and tmi, with
     *  dotted field names ("run.threads", "machine.perf.period"). */
    std::vector<ConfigError> validate() const;

    /** Fail-fast wrapper: fatal() listing every error at once. */
    void validateOrDie() const;
};

/** Run one experiment from a full Config (the real engine; the
 *  ExperimentConfig overload forwards here with default templates). */
RunResult runExperiment(const Config &config);

/**
 * Fluent builder for Config. Chain setters, then build() (validated,
 * fatal on errors), check() (errors as data), or run() directly:
 *
 *   RunResult r = Experiment::builder()
 *                     .workload("histogramfs")
 *                     .treatment(Treatment::TmiProtect)
 *                     .threads(8)
 *                     .trace(true)
 *                     .run();
 */
class ExperimentBuilder
{
  public:
    ExperimentBuilder() = default;
    /** Start from an existing Config (round-trip / tweak-and-rerun). */
    explicit ExperimentBuilder(const Config &base) : _config(base) {}

    /** @name Run-level scalar setters */
    /// @{
    ExperimentBuilder &workload(const std::string &name);
    ExperimentBuilder &treatment(Treatment t);
    ExperimentBuilder &threads(unsigned n);
    ExperimentBuilder &scale(std::uint64_t s);
    ExperimentBuilder &pageShift(unsigned shift);
    ExperimentBuilder &allocator(AllocatorKind kind);
    /** Malloc-placement sensitivity axis (htm-elide / baselines). */
    ExperimentBuilder &placement(PlacementPolicy p);
    ExperimentBuilder &perfPeriod(std::uint64_t period);
    ExperimentBuilder &repairThreshold(double threshold);
    ExperimentBuilder &analysisInterval(Cycles interval);
    ExperimentBuilder &budget(Cycles cycles);
    ExperimentBuilder &seed(std::uint64_t s);
    ExperimentBuilder &dumpStats(bool on = true);
    /** Append one workload knob (raw; validated at build/run). */
    ExperimentBuilder &param(const std::string &key,
                             const std::string &value);
    /** Arm one fault point (repeatable; appends). */
    ExperimentBuilder &fault(const std::string &point,
                             const FaultSpec &spec);
    ExperimentBuilder &faultSeed(std::uint64_t s);
    ExperimentBuilder &watchdog(int mode);
    ExperimentBuilder &monitor(int mode);
    /// @}

    /** @name Template setters (deep knobs)
     *  Each mirrors the scalars it covers back into run so the
     *  overlay in runExperiment() is a no-op unless a later scalar
     *  setter deliberately overrides. */
    /// @{
    ExperimentBuilder &machine(const MachineConfig &mc);
    ExperimentBuilder &runtime(const TmiConfig &tc);
    ExperimentBuilder &detector(const DetectorConfig &dc);
    ExperimentBuilder &robustness(const RobustnessConfig &rc);
    ExperimentBuilder &trace(const obs::TraceConfig &tc);
    /** Shorthand: flip tracing on/off, keep the ring default. */
    ExperimentBuilder &trace(bool enabled);
    /// @}

    /** Validation errors for the current state (empty = buildable). */
    std::vector<ConfigError> check() const;

    /** The validated Config; fatal() listing every error if any. */
    Config build() const;

    /** build() + runExperiment() in one step. */
    RunResult run() const;

    /** Current (unvalidated) state; the tests use this to assert
     *  round-trips without going through fatal paths. */
    const Config &peek() const { return _config; }

  private:
    Config _config;
};

/** Entry point for the fluent API: Experiment::builder()....run(). */
class Experiment
{
  public:
    static ExperimentBuilder builder() { return ExperimentBuilder{}; }

    static ExperimentBuilder
    builder(const Config &base)
    {
        return ExperimentBuilder{base};
    }
};

} // namespace tmi

#endif // TMI_CORE_CONFIG_HH
