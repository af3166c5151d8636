/**
 * @file
 * Crash-safe per-shard result journals.
 *
 * A shard worker process appends one record per completed job to its
 * journal; the supervisor recovers journals to decide what still
 * needs to run and to merge the final result stream. The format is
 * built for exactly one threat model: the writer (or the whole
 * machine) dies mid-byte at an arbitrary point.
 *
 *   file   := magic(8) schemaHash(u64 LE) record*
 *   record := payloadLen(u32 LE) crc32(u32 LE, over payload) payload
 *
 * Recovery scans from the front and stops at the first record whose
 * length or CRC does not check out -- a torn tail is dropped, never
 * interpreted, and the jobs it would have covered simply re-run
 * (each job is a deterministic simulation, so a re-run reproduces
 * the lost record bit for bit). Reopening a journal for append
 * truncates the torn tail first so new records never follow garbage.
 *
 * Durability is checkpoint-based: every K appends (and on close) the
 * writer fsyncs the journal and then publishes a small `.ckpt` meta
 * file via the tempfile+rename idiom, so the meta is always an
 * atomic, self-consistent snapshot. The journal itself remains the
 * source of truth; the checkpoint is advisory (recovery cross-checks
 * it and trusts the CRC scan on disagreement).
 *
 * Records carry the *global* job id plus every durable RunResult
 * field (TMI_RUN_RESULT_FIELDS), whose names and types the header's
 * schema hash covers: a journal of another schema or magic version is
 * refused, never misread or truncated. Trace timelines, stats dumps
 * and metrics registries are not journaled: they are debugging
 * payloads, not results, and would turn flat-memory streaming back
 * into buffering.
 */

#ifndef TMI_DRIVER_JOURNAL_HH
#define TMI_DRIVER_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "driver/sweep.hh"

namespace tmi::driver
{

/** One journaled job outcome (the durable subset of JobResult). */
struct JournalRecord
{
    std::uint64_t jobId = 0; //!< global (pre-sharding) job id
    JobStatus status = JobStatus::Cancelled;
    unsigned attempts = 0;
    std::string error;
    RunResult run; //!< scalar fields only (no traces/metrics)

    /** Copy the durable fields back onto a JobResult shell whose
     *  Job was re-derived from the spec expansion. */
    void restore(JobResult &out) const;

    /** Capture the durable fields of @p result (id = global id). */
    static JournalRecord capture(std::uint64_t globalId,
                                 const JobResult &result);
};

/** @name Record (de)serialization -- exposed for the format tests */
/// @{
/** Serialize @p record to the framed payload (no length/CRC). */
std::string encodeRecord(const JournalRecord &record);

/** Parse a payload; false on a short or malformed buffer. */
bool decodeRecord(const std::string &payload, JournalRecord &out);

/** CRC-32 (IEEE, reflected) of @p data. */
std::uint32_t crc32(const void *data, std::size_t size);
/// @}

/** @name Result schema identity */
/// @{
/** One field-list entry's name and declared type. */
struct SchemaField
{
    const char *name;
    const char *type;
};
#define TMI_SCHEMA_FIELD(type, name, ...) SchemaField{#name, #type},

/** FNV-1a over @p fields' names and types, in order. */
std::uint64_t schemaHash(std::initializer_list<SchemaField> fields);

/** schemaHash of TMI_RUN_RESULT_FIELDS: the journal header's. */
std::uint64_t journalSchemaHash();

/** This build's schema as messages name it: "<magic>/<hash hex>". */
std::string journalSchemaName();

/** Why the journal at @p path, of schema @p found, is refused. */
std::string schemaMismatchMessage(const std::string &path,
                                  const std::string &found);
/// @}

/** What a recovery scan found in one journal file. */
struct JournalRecovery
{
    /** CRC-valid records, in file (== append) order. */
    std::vector<JournalRecord> records;
    /** Length of the valid prefix; bytes past this are torn. */
    std::uint64_t validBytes = 0;
    /** Bytes dropped as a torn/corrupt tail. */
    std::uint64_t tornBytes = 0;
    /** File existed (a missing journal recovers to empty). */
    bool existed = false;
    /** The `.ckpt` meta disagreed with the scan (advisory only). */
    bool checkpointStale = false;
    /** A journal of another version or schema: nothing was read and
     *  the writer must not touch it. foundSchema names it like
     *  journalSchemaName() (just "TMIJRNL3" for another version). */
    bool schemaMismatch = false;
    std::string foundSchema;
};

/**
 * Scan @p path incrementally, validating frame by frame and handing
 * each CRC-valid record to @p fn together with its file offset --
 * one record in memory at a time, so a scan over an arbitrarily
 * large journal stays flat. The returned recovery carries the
 * metadata only (records empty). Never throws: an unreadable file,
 * or one torn inside its header, yields an empty recovery; a corrupt
 * tail is measured, not fatal. @p fn may be null (pure validation
 * scan).
 */
JournalRecovery scanJournal(
    const std::string &path,
    const std::function<void(const JournalRecord &record,
                             std::uint64_t offset)> &fn);

/** scanJournal, retaining the records (small journals, tests). */
JournalRecovery recoverJournal(const std::string &path);

/** Re-read one framed record at @p offset (as reported by
 *  scanJournal); false on any framing/CRC mismatch. */
bool readRecordAt(const std::string &path, std::uint64_t offset,
                  JournalRecord &out);

/**
 * Append-only journal writer over a POSIX fd.
 *
 * open() recovers the existing file (if any), truncates any torn
 * tail, and positions at the end; recovered() says what was already
 * there, so the caller can skip done jobs. append() frames and
 * writes one record; every checkpointEvery appends it fsyncs and
 * publishes the meta checkpoint. close() (and the destructor) always
 * checkpoint, so a cleanly exiting worker never leaves an unsynced
 * tail.
 */
class JournalWriter
{
  public:
    explicit JournalWriter(std::string path,
                           std::uint64_t checkpointEvery = 16);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Recover + open for append; false (with a message in
     *  lastError()) when the file cannot be created or holds a
     *  journal of another schema. */
    bool open();

    /** Records already durable when open() ran. */
    const JournalRecovery &recovered() const { return _recovered; }

    /** Frame and append @p record; checkpoints every K appends. */
    bool append(const JournalRecord &record);

    /** fsync the journal, then atomically replace the `.ckpt` meta
     *  (tempfile + rename). Idempotent; cheap when nothing new. */
    bool checkpoint();

    /** Checkpoint and close the fd. Safe to call twice. */
    void close();

    bool isOpen() const { return _fd >= 0; }
    std::uint64_t recordCount() const { return _count; }
    const std::string &path() const { return _path; }
    const std::string &lastError() const { return _error; }

    /** Meta sidecar path for a journal ("<path>.ckpt"). */
    static std::string checkpointPath(const std::string &path);

  private:
    std::string _path;
    std::uint64_t _checkpointEvery;
    JournalRecovery _recovered;
    int _fd = -1;
    std::uint64_t _count = 0;         //!< records durable + appended
    std::uint64_t _sinceCheckpoint = 0;
    std::string _error;
};

} // namespace tmi::driver

#endif // TMI_DRIVER_JOURNAL_HH
