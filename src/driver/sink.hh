/**
 * @file
 * Result sinks for the sweep driver.
 *
 * The Runner delivers every JobResult to one ResultSink, strictly in
 * job-id order and from one thread at a time (the delivery lock),
 * regardless of which worker finished which job when. A sink can
 * therefore stream CSV rows, update aggregates, or forward to the
 * existing exporters without any synchronization of its own -- and
 * its output is byte-identical for any worker count.
 *
 * sweepCsvHeader()/sweepCsvRow() define the canonical aggregated
 * sweep schema; scripts/check_sweep.py validates files against it.
 */

#ifndef TMI_DRIVER_SINK_HH
#define TMI_DRIVER_SINK_HH

#include <cstdio>
#include <functional>
#include <ostream>

#include "core/csv.hh"
#include "driver/sweep.hh"

namespace tmi::driver
{

/** Receives results in job-id order; calls are serialized. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;
    virtual void onResult(const JobResult &result) = 0;
};

/** @name Canonical sweep CSV schema */
/// @{
/** The header line (no trailing newline). */
const char *sweepCsvHeader();

/** One result as a schema row (no trailing newline). Commas and
 *  newlines in the error message are sanitized to ';'. */
std::string sweepCsvRow(const JobResult &result);

/** A RunResult counter cell, zeroed unless @p row's job ran ok.
 *  Shared by the sweep and chaos column tables (both rows carry a
 *  `status` and a `run`). */
template <auto Field, class Row>
std::string
okCount(const Row &row)
{
    return std::to_string(row.status == JobStatus::Ok ? row.run.*Field : 0);
}
/// @}

/**
 * Streams the canonical CSV; writes the header on construction.
 *
 * Two flavors: the ostream constructor streams without durability
 * guarantees (tests, stdout), while the path constructor owns a
 * stdio stream and fflush+fsyncs it every @p flushEvery rows and on
 * destruction -- a crashed orchestrator never leaves a torn final
 * row, and everything written before the last sync boundary survives
 * even a power cut.
 */
class SweepCsvSink : public ResultSink
{
  public:
    explicit SweepCsvSink(std::ostream &os);
    /** Open @p path for writing (truncates). ok() reports failure. */
    explicit SweepCsvSink(const std::string &path,
                          std::uint64_t flushEvery = 64);
    ~SweepCsvSink() override;

    void onResult(const JobResult &result) override;

    /** fflush + fsync the owned file (no-op in ostream mode). */
    void sync();

    /** False when the path constructor could not open the file. */
    bool ok() const { return _os != nullptr || _file != nullptr; }

  private:
    std::ostream *_os = nullptr;
    std::FILE *_file = nullptr; //!< owned; null in ostream mode
    std::uint64_t _flushEvery = 64;
    std::uint64_t _sinceFlush = 0;
};

/** Adapts a lambda (benches, tests). */
class FunctionSink : public ResultSink
{
  public:
    explicit FunctionSink(std::function<void(const JobResult &)> fn)
        : _fn(std::move(fn))
    {
    }

    void
    onResult(const JobResult &result) override
    {
        _fn(result);
    }

  private:
    std::function<void(const JobResult &)> _fn;
};

} // namespace tmi::driver

#endif // TMI_DRIVER_SINK_HH
