/**
 * @file
 * Per-layer host-cost attribution for the benchmark's traced run.
 *
 * A pthreads job is re-run through a capture harness that rebuilds its
 * Machine and Workload through the public API, with every access
 * reported to an AccessSampler at zero simulated cost. The captured
 * prefix of the access stream is then replayed, in timed batches, into
 * the public entry point of each layer an access crosses: CacheSim,
 * Tlb, AccessPipeline, Mmu, PhysicalMemory, PerfSession and Detector.
 * Scheduler and PTSB costs are replayed in isolation. Nothing under
 * src/ is instrumented; every span is taken here, around the call.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"

namespace perfbench
{

/** One timed batch of replayed calls into a layer. */
struct Span
{
    std::string layer;
    std::uint64_t job = 0;
    std::uint64_t startNs = 0; //!< since the SpanLog was created
    std::uint64_t endNs = 0;
    /** CPU time inside the layer; excludes any untimed set-up work the
     *  batch interleaves (PTSB page dirtying). */
    std::uint64_t busyNs = 0;
    std::uint64_t calls = 0;
};

/**
 * In-memory span store, written out when the run ends, and the
 * benchmark's two clocks: wall time places spans on a timeline, and
 * the thread's CPU time measures work. CPU time leaves out what the
 * shared host's hypervisor steals from the thread, which is the larger
 * part of the run-to-run noise on a shared machine.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Wall ns since this log was created. */
    std::uint64_t
    now() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - _origin)
                .count());
    }

    /** CPU ns this thread has consumed. */
    static std::uint64_t
    cpuNow()
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }

    void
    add(const std::string &layer, std::uint64_t job, std::uint64_t start,
        std::uint64_t end, std::uint64_t busy, std::uint64_t calls)
    {
        _spans.push_back({layer, job, start, end, busy, calls});
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
};

/** What one traced pthreads job measured. */
struct JobTrace
{
    /** @name Capture harness (the whole run) */
    /// @{
    tmi::Cycles cycles = 0;
    std::uint64_t hitmEvents = 0;
    std::uint64_t memOps = 0;
    bool valid = false;
    std::uint64_t cpuNs = 0;      //!< harness run, capture included
    std::uint64_t plainCpuNs = 0; //!< the same run uninstrumented
    /// @}

    /** @name The captured prefix */
    /// @{
    std::uint64_t captured = 0;
    std::uint64_t liveL1Hits = 0; //!< run's own counts at prefix end
    std::uint64_t liveHitm = 0;
    std::uint64_t replayL1Hits = 0; //!< fresh CacheSim on the prefix
    std::uint64_t replayHitm = 0;
    std::uint64_t frameMisses = 0;  //!< replayed frame-cache misses
    /// @}
};

/** Accesses captured per job: enough for stable per-call costs, small
 *  enough (about 15 MB) to keep the traced run's memory modest. */
inline constexpr std::size_t capturePrefix = std::size_t{1} << 18;

/**
 * Capture @p config's access stream (a pthreads cell) up to
 * capturePrefix accesses, then replay the prefix into every per-access
 * layer, one span per batch, tagged with @p job.
 */
JobTrace traceJob(const tmi::Config &config, std::uint64_t job,
                  SpanLog &log);

/** Two fibers advancing past each other: spans of SimScheduler cost,
 *  counted per fiber switch. */
void replayScheduler(SpanLog &log, unsigned batches);

/** Ptsb::commit on one protected page dirtied with @p bytes changed
 *  bytes before each of @p commits commits. */
void replayPtsbCommit(SpanLog &log, std::uint64_t bytes,
                      unsigned commits);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
