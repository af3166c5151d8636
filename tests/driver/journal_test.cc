/**
 * @file
 * Journal format tests: encode/decode round-trips over every durable
 * field, a deterministic mutation fuzz of the decoder, CRC rejection
 * of torn and corrupted tails, refusal of journals from another
 * schema, truncated-checkpoint recovery, and the writer's
 * reopen-truncate-append contract. The journal is the supervisor's
 * source of truth, so these run against raw files with hand-made
 * damage, not through the orchestration layer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/mutation_fuzz.hh"
#include "driver/journal.hh"

namespace tmi::driver
{

namespace
{

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/tmi_journal_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        _dir = tmpl;
        _path = _dir + "/shard-000.journal";
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(_dir, ec);
    }

    std::string _dir;
    std::string _path;
};

/** A record with every field class populated (strings, doubles,
 *  flags, counters) so round-trips cover the whole codec. */
JournalRecord
sampleRecord(std::uint64_t id)
{
    JournalRecord rec;
    rec.jobId = id;
    rec.status = id % 2 ? JobStatus::Failed : JobStatus::Ok;
    rec.attempts = static_cast<unsigned>(1 + id % 3);
    rec.error = id % 2 ? "some, error\nwith noise" : "";
    rec.run.workload = "histogramfs";
    rec.run.treatment = Treatment::TmiProtect;
    rec.run.outcome = RunOutcome::Completed;
    rec.run.valid = true;
    rec.run.compatible = true;
    rec.run.resultDigest = 0xdeadbeef00ull + id;
    rec.run.cycles = 123456789 + id;
    rec.run.seconds = 0.125 * static_cast<double>(id + 1);
    rec.run.hitmEvents = 42 + id;
    rec.run.pebsRecords = 7;
    rec.run.fsEventsEstimated = 3.5;
    rec.run.ladderRung = "detect-and-repair";
    rec.run.faultFires = id;
    rec.run.watchdogFlushes = 2;
    rec.run.invariantViolations = 0;
    return rec;
}

/** @name Distinct non-default values, one per durable field type */
/// @{
void
setDistinct(std::uint64_t &v, unsigned k)
{
    v = 0x1000'0000'0000ull + k;
}

void
setDistinct(double &v, unsigned k)
{
    v = k + 0.25;
}

void
setDistinct(bool &v, unsigned)
{
    v = true;
}

void
setDistinct(std::string &v, unsigned k)
{
    v = "field-" + std::to_string(k) + ", with\nnoise";
}

void
setDistinct(Treatment &v, unsigned)
{
    v = allTreatments().back();
}

void
setDistinct(RunOutcome &v, unsigned)
{
    v = RunOutcome::Deadlock;
}
/// @}

/** A record with every durable field set to a distinct non-default
 *  value, so a codec that drops or swaps any field fails. */
JournalRecord
fullRecord()
{
    JournalRecord rec;
    rec.jobId = 0xfeed'beef'0000'0001ull;
    rec.status = JobStatus::Poisoned;
    rec.attempts = 7;
    rec.error = "bad, job";
    unsigned k = 0;
#define TMI_SET_FIELD(type, name, ...) setDistinct(rec.run.name, ++k);
    TMI_RUN_RESULT_FIELDS(TMI_SET_FIELD)
#undef TMI_SET_FIELD
    return rec;
}

/** Every durable field, compared by walking the field list. */
void
expectEqual(const JournalRecord &a, const JournalRecord &b)
{
    EXPECT_EQ(a.jobId, b.jobId);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.error, b.error);
#define TMI_EXPECT_FIELD(type, name, ...)                              \
    EXPECT_EQ(a.run.name, b.run.name) << #name;
    TMI_RUN_RESULT_FIELDS(TMI_EXPECT_FIELD)
#undef TMI_EXPECT_FIELD
}

/** Write @p n sample records through the writer and close. */
void
writeJournal(const std::string &path, std::uint64_t n,
             std::uint64_t checkpointEvery = 2)
{
    JournalWriter w(path, checkpointEvery);
    ASSERT_TRUE(w.open()) << w.lastError();
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(w.append(sampleRecord(i)));
    w.close();
}

std::uint64_t
fileSize(const std::string &path)
{
    return static_cast<std::uint64_t>(fs::file_size(path));
}

/** Rewrite bytes [at, at + text.size()) of @p path in place. */
void
patchFile(const std::string &path, std::size_t at,
          const std::string &text)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), {}};
}

} // namespace

TEST_F(JournalTest, EncodeDecodeRoundTrip)
{
    JournalRecord rec = fullRecord();
    const RunResult defaults;
#define TMI_EXPECT_SET(type, name, ...)                                \
    EXPECT_NE(rec.run.name, defaults.name) << #name << " left at default";
    TMI_RUN_RESULT_FIELDS(TMI_EXPECT_SET)
#undef TMI_EXPECT_SET
    std::string payload = encodeRecord(rec);
    JournalRecord back;
    ASSERT_TRUE(decodeRecord(payload, back));
    expectEqual(back, rec);
    // The sparse sample decodes too.
    ASSERT_TRUE(decodeRecord(encodeRecord(sampleRecord(17)), back));
    expectEqual(back, sampleRecord(17));
}

TEST_F(JournalTest, DecodeRejectsOutOfRangeEnums)
{
    JournalRecord rec = sampleRecord(2);
    rec.error.clear();
    rec.run.workload.clear();
    std::string payload = encodeRecord(rec);
    // Layout: jobId(8) status(1) attempts(4) error(4+0) workload(4+0)
    // then the treatment and outcome bytes.
    const std::size_t status = 8, treatment = 8 + 1 + 4 + 4 + 4;
    const std::size_t outcome = treatment + 1;
    JournalRecord out;
    ASSERT_TRUE(decodeRecord(payload, out));
    for (std::size_t at : {status, treatment, outcome}) {
        std::string bad = payload;
        bad[at] = static_cast<char>(0x7f);
        EXPECT_FALSE(decodeRecord(bad, out)) << "byte " << at;
    }
    std::string bad = payload;
    bad[treatment] = static_cast<char>(allTreatments().size());
    EXPECT_FALSE(decodeRecord(bad, out));
}

/**
 * Deterministic mutation fuzz of the record decoder: bit flips,
 * truncations, byte overwrites and splices of encoded records.
 * Every mutant must either be rejected or decode to a record that
 * re-encodes to exactly the mutant (the codec is canonical, so an
 * accepted payload can hold no out-of-range or ignored bytes). Run
 * under the asan-ubsan preset this also proves the decoder never
 * reads out of bounds or loads an invalid enum.
 */
TEST_F(JournalTest, MutationFuzzDecodesOrRejects)
{
    std::vector<std::string> corpus = {encodeRecord(fullRecord()),
                                       encodeRecord(sampleRecord(1)),
                                       encodeRecord(sampleRecord(4)),
                                       encodeRecord(JournalRecord{})};
    test::Mutator mutator(std::move(corpus), 0x7a3c5eedull,
                          test::Mutator::kBinaryOps);
    unsigned accepted = 0, rejected = 0;
    for (unsigned i = 0; i < 6000; ++i) {
        std::string m = mutator.mutate(i);
        JournalRecord out;
        if (decodeRecord(m, out)) {
            ++accepted;
            ASSERT_EQ(encodeRecord(out), m) << "mutant " << i;
        } else {
            ++rejected;
        }
    }
    // Both paths must actually be exercised.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

TEST_F(JournalTest, SchemaHashCoversTheFieldList)
{
    EXPECT_EQ(schemaHash({TMI_RUN_RESULT_FIELDS(TMI_SCHEMA_FIELD)}),
              journalSchemaHash());
    // Adding, renaming or retyping a field changes the hash.
#define TMI_EXTRA_FIELD(X) X(std::uint64_t, newCounter, 0)
    EXPECT_NE(schemaHash({TMI_RUN_RESULT_FIELDS(TMI_SCHEMA_FIELD)
                              TMI_EXTRA_FIELD(TMI_SCHEMA_FIELD)}),
              journalSchemaHash());
#undef TMI_EXTRA_FIELD
    EXPECT_NE(schemaHash({{"cycles", "Cycles"}}),
              schemaHash({{"cycles", "double"}}));
    EXPECT_NE(schemaHash({{"cycles", "Cycles"}}),
              schemaHash({{"makespan", "Cycles"}}));
}

TEST_F(JournalTest, DecodeRejectsShortAndPaddedPayloads)
{
    std::string payload = encodeRecord(sampleRecord(3));
    JournalRecord out;
    EXPECT_FALSE(decodeRecord(payload.substr(0, 10), out));
    EXPECT_FALSE(decodeRecord(payload + "x", out));
    EXPECT_FALSE(decodeRecord("", out));
}

TEST_F(JournalTest, WriteThenRecoverRoundTrips)
{
    writeJournal(_path, 5);
    JournalRecovery rec = recoverJournal(_path);
    EXPECT_TRUE(rec.existed);
    EXPECT_EQ(rec.tornBytes, 0u);
    ASSERT_EQ(rec.records.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        expectEqual(rec.records[i], sampleRecord(i));
}

TEST_F(JournalTest, MissingJournalRecoversEmpty)
{
    JournalRecovery rec = recoverJournal(_path);
    EXPECT_FALSE(rec.existed);
    EXPECT_TRUE(rec.records.empty());
    EXPECT_EQ(rec.validBytes, 0u);
}

TEST_F(JournalTest, TornTailIsDroppedNotInterpreted)
{
    writeJournal(_path, 3);
    std::uint64_t clean = fileSize(_path);
    {
        // A crash mid-append: garbage that never got its frame.
        std::ofstream os(_path, std::ios::app | std::ios::binary);
        os << "\x13\x00\x00\x00gargbage-torn-tail";
    }
    JournalRecovery rec = recoverJournal(_path);
    ASSERT_EQ(rec.records.size(), 3u);
    EXPECT_EQ(rec.validBytes, clean);
    EXPECT_GT(rec.tornBytes, 0u);
}

TEST_F(JournalTest, TruncatedMidRecordDropsOnlyTheTornRecord)
{
    writeJournal(_path, 3);
    fs::resize_file(_path, fileSize(_path) - 5);
    JournalRecovery rec = recoverJournal(_path);
    ASSERT_EQ(rec.records.size(), 2u);
    expectEqual(rec.records[1], sampleRecord(1));
    EXPECT_GT(rec.tornBytes, 0u);
}

TEST_F(JournalTest, CorruptedPayloadByteFailsItsCrc)
{
    writeJournal(_path, 3);
    // Flip one byte inside the middle record's payload.
    std::fstream f(_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    std::uint64_t frame0_end = 0;
    {
        JournalRecovery rec = recoverJournal(_path);
        ASSERT_EQ(rec.records.size(), 3u);
        // Offset of record 1's payload: scan reports frame starts.
        std::uint64_t offset1 = 0;
        int seen = 0;
        scanJournal(_path, [&](const JournalRecord &,
                               std::uint64_t off) {
            if (seen++ == 1)
                offset1 = off;
        });
        frame0_end = offset1;
    }
    f.seekp(static_cast<std::streamoff>(frame0_end + 8 + 4));
    f.put('\xff');
    f.close();

    // Recovery keeps the valid prefix (record 0) and drops the
    // corrupt record *and everything after it*: a CRC break means
    // the file can no longer be trusted past that point.
    JournalRecovery rec = recoverJournal(_path);
    ASSERT_EQ(rec.records.size(), 1u);
    expectEqual(rec.records[0], sampleRecord(0));
    EXPECT_GT(rec.tornBytes, 0u);
}

TEST_F(JournalTest, ForeignFileRecoversAsFullyTorn)
{
    {
        std::ofstream os(_path, std::ios::binary);
        os << "not a journal at all, just some text\n";
    }
    JournalRecovery rec = recoverJournal(_path);
    EXPECT_TRUE(rec.existed);
    EXPECT_TRUE(rec.records.empty());
    EXPECT_EQ(rec.validBytes, 0u);
    EXPECT_GT(rec.tornBytes, 0u);
}

TEST_F(JournalTest, TornHeaderRecoversEmptyAndIsRewritten)
{
    writeJournal(_path, 2);
    fs::resize_file(_path, 11); // died mid-header
    JournalRecovery rec = recoverJournal(_path);
    EXPECT_FALSE(rec.schemaMismatch);
    EXPECT_EQ(rec.validBytes, 0u);
    EXPECT_EQ(rec.tornBytes, 11u);

    JournalWriter w(_path, 1);
    ASSERT_TRUE(w.open()) << w.lastError();
    EXPECT_EQ(w.recordCount(), 0u);
    ASSERT_TRUE(w.append(sampleRecord(0)));
    w.close();
    EXPECT_EQ(recoverJournal(_path).records.size(), 1u);
}

TEST_F(JournalTest, OtherVersionJournalIsRefusedUntouched)
{
    writeJournal(_path, 3);
    patchFile(_path, 0, "TMIJRNL3");
    std::string before = readBytes(_path);

    JournalRecovery rec = recoverJournal(_path);
    EXPECT_TRUE(rec.schemaMismatch);
    EXPECT_EQ(rec.foundSchema, "TMIJRNL3");
    EXPECT_TRUE(rec.records.empty());

    JournalWriter w(_path, 1);
    EXPECT_FALSE(w.open());
    EXPECT_FALSE(w.isOpen());
    EXPECT_NE(w.lastError().find("TMIJRNL3"), std::string::npos);
    EXPECT_NE(w.lastError().find(journalSchemaName()), std::string::npos);
    EXPECT_NE(w.lastError().find("--journal-dir"), std::string::npos);
    EXPECT_EQ(readBytes(_path), before);
}

TEST_F(JournalTest, OtherSchemaHashIsRefusedUntouched)
{
    writeJournal(_path, 2);
    patchFile(_path, 8, std::string(8, '\x5a')); // the schema hash
    std::string before = readBytes(_path);

    JournalRecovery rec = recoverJournal(_path);
    EXPECT_TRUE(rec.schemaMismatch);
    EXPECT_EQ(rec.foundSchema,
              journalSchemaName().substr(0, 8) + "/5a5a5a5a5a5a5a5a");
    JournalWriter w(_path, 1);
    EXPECT_FALSE(w.open());
    EXPECT_EQ(readBytes(_path), before);
}

TEST_F(JournalTest, ReopenTruncatesTornTailBeforeAppending)
{
    writeJournal(_path, 2);
    std::uint64_t clean = fileSize(_path);
    {
        std::ofstream os(_path, std::ios::app | std::ios::binary);
        os << "torn";
    }
    JournalWriter w(_path, 1);
    ASSERT_TRUE(w.open());
    EXPECT_EQ(w.recovered().records.size(), 2u);
    EXPECT_EQ(fileSize(_path), clean); // tail gone before append
    ASSERT_TRUE(w.append(sampleRecord(2)));
    w.close();

    JournalRecovery rec = recoverJournal(_path);
    ASSERT_EQ(rec.records.size(), 3u);
    expectEqual(rec.records[2], sampleRecord(2));
    EXPECT_EQ(rec.tornBytes, 0u);
}

TEST_F(JournalTest, StaleCheckpointIsAdvisoryOnly)
{
    // Checkpoint meta claims 4 records; the journal then loses two
    // (disk rollback / truncation after the checkpoint was cut).
    writeJournal(_path, 4, /*checkpointEvery=*/1);
    JournalRecovery before = recoverJournal(_path);
    ASSERT_EQ(before.records.size(), 4u);
    // Truncate to exactly two records' worth of bytes.
    std::uint64_t offset2 = 0;
    int seen = 0;
    scanJournal(_path, [&](const JournalRecord &, std::uint64_t off) {
        if (seen++ == 2)
            offset2 = off;
    });
    fs::resize_file(_path, offset2);

    JournalRecovery rec = recoverJournal(_path);
    ASSERT_EQ(rec.records.size(), 2u);
    EXPECT_TRUE(rec.checkpointStale);
    EXPECT_EQ(rec.tornBytes, 0u); // clean cut, just shorter

    // And the writer resumes from the scan, not the stale meta.
    JournalWriter w(_path, 1);
    ASSERT_TRUE(w.open());
    EXPECT_EQ(w.recordCount(), 2u);
    w.close();
}

TEST_F(JournalTest, ReadRecordAtRandomAccess)
{
    writeJournal(_path, 4);
    std::vector<std::uint64_t> offsets;
    scanJournal(_path, [&](const JournalRecord &, std::uint64_t off) {
        offsets.push_back(off);
    });
    ASSERT_EQ(offsets.size(), 4u);
    JournalRecord rec;
    ASSERT_TRUE(readRecordAt(_path, offsets[2], rec));
    expectEqual(rec, sampleRecord(2));
    EXPECT_FALSE(readRecordAt(_path, offsets[2] + 1, rec));
}

TEST_F(JournalTest, CheckpointMetaIsPublishedAtomically)
{
    JournalWriter w(_path, 2);
    ASSERT_TRUE(w.open());
    ASSERT_TRUE(w.append(sampleRecord(0)));
    // Below the cadence: no checkpoint yet.
    EXPECT_FALSE(fs::exists(JournalWriter::checkpointPath(_path)));
    ASSERT_TRUE(w.append(sampleRecord(1)));
    EXPECT_TRUE(fs::exists(JournalWriter::checkpointPath(_path)));
    // The tempfile must never linger.
    EXPECT_FALSE(
        fs::exists(JournalWriter::checkpointPath(_path) + ".tmp"));
    w.close();
}

} // namespace tmi::driver
