#include "journal.hh"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "common/fnv.hh"

namespace tmi::driver
{

namespace
{

/** File magic: format name + version byte. The version covers the
 *  framing and the record header; the schema hash that follows it in
 *  the header covers the RunResult field list. A journal of another
 *  version or schema is refused, never reinterpreted or truncated. */
constexpr char kMagic[8] = {'T', 'M', 'I', 'J', 'R', 'N', 'L', '5'};
constexpr std::size_t kMagicPrefix = 7; //!< "TMIJRNL", version-free

/** Header: magic + schema hash (u64 LE). */
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;

/** Frames larger than this are treated as corruption, not records;
 *  a real record is a few hundred bytes of scalars and short
 *  strings. */
constexpr std::uint32_t kMaxPayload = 1u << 20;

/** @name Typed little-endian (de)serializers
 *  Integers travel in their own width, enums and bools as one byte,
 *  doubles as their bit pattern, strings length-prefixed. */
/// @{
template <class T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
void
put(std::string &out, T v)
{
    constexpr std::size_t bytes = std::is_enum_v<T> ? 1 : sizeof(T);
    for (std::size_t i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>(
            static_cast<std::uint64_t>(v) >> (8 * i)));
}

void
put(std::string &out, double v)
{
    put(out, std::bit_cast<std::uint64_t>(v));
}

void
put(std::string &out, const std::string &s)
{
    put(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/** The largest valid value of each one-byte type. */
unsigned maxOf(bool) { return 1; }
unsigned maxOf(Treatment) { return allTreatments().size() - 1; }
unsigned maxOf(RunOutcome) { return unsigned(RunOutcome::Deadlock); }
unsigned maxOf(JobStatus) { return unsigned(JobStatus::Poisoned); }

struct Cursor
{
    const std::string &buf;
    std::size_t pos = 0;
    bool ok = true;

    std::uint64_t
    le(std::size_t bytes)
    {
        std::uint64_t v = 0;
        if (!ok || bytes > buf.size() - pos) {
            ok = false;
            return 0;
        }
        for (std::size_t i = 0; i < bytes; ++i)
            v |= std::uint64_t(std::uint8_t(buf[pos + i])) << (8 * i);
        pos += bytes;
        return v;
    }
};

template <class T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
void
get(Cursor &c, T &v)
{
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
        // An out-of-range byte rejects the record: casting it would
        // make a value the type does not have.
        std::uint64_t b = c.le(1);
        c.ok = c.ok && b <= maxOf(T{});
        v = static_cast<T>(c.ok ? b : 0);
    } else {
        v = static_cast<T>(c.le(sizeof(T)));
    }
}

void
get(Cursor &c, double &v)
{
    v = std::bit_cast<double>(c.le(8));
}

void
get(Cursor &c, std::string &s)
{
    std::uint64_t n = c.le(4);
    if (!c.ok || n > c.buf.size() - c.pos) {
        c.ok = false;
        return;
    }
    s.assign(c.buf, c.pos, n);
    c.pos += n;
}
/// @}

/** The header this build writes: magic + schema hash. */
std::string
journalHeader()
{
    std::string header(kMagic, sizeof(kMagic));
    put(header, journalSchemaHash());
    return header;
}

/** Full write() with EINTR retry. */
bool
writeAll(int fd, const void *data, std::size_t size)
{
    const char *p = static_cast<const char *>(data);
    while (size > 0) {
        ssize_t n = ::write(fd, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    // Table-driven CRC-32 (IEEE 802.3, reflected 0xEDB88320),
    // computed once on first use.
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::uint64_t
schemaHash(std::initializer_list<SchemaField> fields)
{
    Fnv1a h;
    for (const SchemaField &f : fields)
        h.str(f.name).str(f.type);
    return h.h;
}

std::uint64_t
journalSchemaHash()
{
    static const std::uint64_t hash =
        schemaHash({TMI_RUN_RESULT_FIELDS(TMI_SCHEMA_FIELD)});
    return hash;
}

std::string
journalSchemaName()
{
    return std::string(kMagic, sizeof(kMagic)) + "/" +
           hashHex(journalSchemaHash());
}

std::string
schemaMismatchMessage(const std::string &path, const std::string &found)
{
    return path + ": journal schema " + found +
           " differs from this build's " + journalSchemaName() +
           "; use a fresh --journal-dir";
}

void
JournalRecord::restore(JobResult &out) const
{
    out.status = status;
    out.attempts = attempts;
    out.error = error;
    out.run = run;
}

JournalRecord
JournalRecord::capture(std::uint64_t globalId, const JobResult &r)
{
    JournalRecord rec;
    rec.jobId = globalId;
    rec.status = r.status;
    rec.attempts = r.attempts;
    rec.error = r.error;
    // Only the durable fields: the debugging payloads (see file
    // comment) stay behind.
#define TMI_COPY_FIELD(type, name, ...) rec.run.name = r.run.name;
    TMI_RUN_RESULT_FIELDS(TMI_COPY_FIELD)
#undef TMI_COPY_FIELD
    return rec;
}

std::string
encodeRecord(const JournalRecord &rec)
{
    std::string out;
    out.reserve(256);
    put(out, rec.jobId);
    put(out, rec.status);
    put(out, rec.attempts);
    put(out, rec.error);
#define TMI_PUT_FIELD(type, name, ...) put(out, rec.run.name);
    TMI_RUN_RESULT_FIELDS(TMI_PUT_FIELD)
#undef TMI_PUT_FIELD
    return out;
}

bool
decodeRecord(const std::string &payload, JournalRecord &out)
{
    Cursor c{payload};
    out = {};
    get(c, out.jobId);
    get(c, out.status);
    get(c, out.attempts);
    get(c, out.error);
#define TMI_GET_FIELD(type, name, ...) get(c, out.run.name);
    TMI_RUN_RESULT_FIELDS(TMI_GET_FIELD)
#undef TMI_GET_FIELD
    // The payload must be exactly one record: trailing bytes mean a
    // framing bug or a foreign format, both grounds for rejection.
    return c.ok && c.pos == payload.size();
}

namespace
{

/** Read exactly @p size bytes at @p offset; false on a short read. */
bool
preadAll(int fd, void *dst, std::size_t size, std::uint64_t offset)
{
    char *p = static_cast<char *>(dst);
    while (size > 0) {
        ssize_t n = ::pread(fd, p, size, static_cast<off_t>(offset));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        offset += static_cast<std::uint64_t>(n);
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Decode the frame at @p offset; false on tear/corruption.
 *  @p frameBytes reports the full frame length on success. */
bool
readFrame(int fd, std::uint64_t offset, std::uint64_t fileSize,
          JournalRecord &out, std::uint64_t &frameBytes)
{
    if (offset + 8 > fileSize)
        return false;
    std::string hdr(8, '\0');
    if (!preadAll(fd, hdr.data(), hdr.size(), offset))
        return false;
    Cursor c{hdr};
    std::uint32_t len = 0, crc = 0;
    get(c, len);
    get(c, crc);
    if (len == 0 || len > kMaxPayload || offset + 8 + len > fileSize)
        return false;
    std::string payload(len, '\0');
    if (!preadAll(fd, payload.data(), len, offset + 8))
        return false;
    if (crc32(payload.data(), payload.size()) != crc)
        return false; // bit rot or a mid-payload tear
    if (!decodeRecord(payload, out))
        return false;
    frameBytes = 8 + len;
    return true;
}

} // namespace

JournalRecovery
scanJournal(const std::string &path,
            const std::function<void(const JournalRecord &,
                                     std::uint64_t)> &fn)
{
    JournalRecovery rec;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return rec;
    rec.existed = true;
    off_t end = ::lseek(fd, 0, SEEK_END);
    std::uint64_t size = end > 0 ? static_cast<std::uint64_t>(end) : 0;

    std::string header(kHeaderBytes, '\0');
    if (size < kHeaderBytes ||
        !preadAll(fd, header.data(), header.size(), 0) ||
        header.compare(0, kMagicPrefix, kMagic, kMagicPrefix) != 0) {
        // Torn before the header survived, or not a journal at all:
        // the whole file is torn.
        rec.tornBytes = size;
        ::close(fd);
        return rec;
    }
    if (header != journalHeader()) {
        // A journal of another format or result schema: its records
        // cannot be decoded here, and truncating would destroy them.
        rec.schemaMismatch = true;
        rec.foundSchema = header.substr(0, sizeof(kMagic));
        if (header[kMagicPrefix] == kMagic[kMagicPrefix]) {
            Cursor c{header, sizeof(kMagic)};
            rec.foundSchema += "/" + hashHex(c.le(8));
        }
        ::close(fd);
        return rec;
    }
    rec.validBytes = kHeaderBytes;

    JournalRecord record;
    std::uint64_t frame = 0;
    std::uint64_t count = 0;
    while (readFrame(fd, rec.validBytes, size, record, frame)) {
        if (fn)
            fn(record, rec.validBytes);
        rec.validBytes += frame;
        ++count;
    }
    rec.tornBytes = size - rec.validBytes;
    ::close(fd);

    // Cross-check the advisory checkpoint: it may lag (appends since
    // the last sync) but claiming *more* records than the journal
    // holds marks it stale.
    int mfd = ::open(JournalWriter::checkpointPath(path).c_str(),
                     O_RDONLY);
    if (mfd >= 0) {
        char buf[128];
        ssize_t n = ::read(mfd, buf, sizeof(buf) - 1);
        ::close(mfd);
        if (n > 0) {
            buf[n] = '\0';
            unsigned long long claimed = 0;
            if (std::sscanf(buf, "records=%llu", &claimed) == 1 &&
                claimed > count) {
                rec.checkpointStale = true;
            }
        }
    }
    return rec;
}

JournalRecovery
recoverJournal(const std::string &path)
{
    std::vector<JournalRecord> records;
    JournalRecovery rec = scanJournal(
        path, [&](const JournalRecord &r, std::uint64_t) {
            records.push_back(r);
        });
    rec.records = std::move(records);
    return rec;
}

bool
readRecordAt(const std::string &path, std::uint64_t offset,
             JournalRecord &out)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    off_t end = ::lseek(fd, 0, SEEK_END);
    std::uint64_t frame = 0;
    bool ok = end > 0 &&
              readFrame(fd, offset, static_cast<std::uint64_t>(end),
                        out, frame);
    ::close(fd);
    return ok;
}

std::string
JournalWriter::checkpointPath(const std::string &path)
{
    return path + ".ckpt";
}

JournalWriter::JournalWriter(std::string path,
                             std::uint64_t checkpointEvery)
    : _path(std::move(path)),
      _checkpointEvery(checkpointEvery ? checkpointEvery : 1)
{
}

JournalWriter::~JournalWriter()
{
    close();
}

bool
JournalWriter::open()
{
    close();
    _recovered = recoverJournal(_path);
    if (_recovered.schemaMismatch) {
        _error = schemaMismatchMessage(_path, _recovered.foundSchema);
        return false;
    }
    _fd = ::open(_path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (_fd < 0) {
        _error = _path + ": " + std::strerror(errno);
        return false;
    }
    if (!_recovered.existed || _recovered.validBytes == 0) {
        // Fresh file (or one torn before the header survived).
        std::string header = journalHeader();
        if (::ftruncate(_fd, 0) != 0 ||
            !writeAll(_fd, header.data(), header.size())) {
            _error = _path + ": " + std::strerror(errno);
            close();
            return false;
        }
        _recovered.records.clear();
        _recovered.validBytes = kHeaderBytes;
    } else if (_recovered.tornBytes > 0) {
        // Drop the torn tail so new records never follow garbage.
        if (::ftruncate(_fd,
                        static_cast<off_t>(_recovered.validBytes)) !=
            0) {
            _error = _path + ": " + std::strerror(errno);
            close();
            return false;
        }
    }
    if (::lseek(_fd, 0, SEEK_END) < 0) {
        _error = _path + ": " + std::strerror(errno);
        close();
        return false;
    }
    _count = _recovered.records.size();
    _sinceCheckpoint = 0;
    return true;
}

bool
JournalWriter::append(const JournalRecord &record)
{
    if (_fd < 0)
        return false;
    std::string payload = encodeRecord(record);
    std::string frame;
    frame.reserve(payload.size() + 8);
    put(frame, static_cast<unsigned>(payload.size()));
    put(frame, static_cast<unsigned>(crc32(payload.data(), payload.size())));
    frame.append(payload);
    if (!writeAll(_fd, frame.data(), frame.size())) {
        _error = _path + ": " + std::strerror(errno);
        return false;
    }
    ++_count;
    if (++_sinceCheckpoint >= _checkpointEvery)
        return checkpoint();
    return true;
}

bool
JournalWriter::checkpoint()
{
    if (_fd < 0)
        return false;
    if (::fsync(_fd) != 0) {
        _error = _path + ": fsync: " + std::strerror(errno);
        return false;
    }
    // Publish the meta atomically: a reader sees either the old
    // checkpoint or the new one, never a torn half-write.
    std::string meta_path = checkpointPath(_path);
    std::string tmp_path = meta_path + ".tmp";
    int mfd = ::open(tmp_path.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (mfd < 0) {
        _error = tmp_path + ": " + std::strerror(errno);
        return false;
    }
    char buf[64];
    int n = std::snprintf(buf, sizeof(buf), "records=%llu\n",
                          static_cast<unsigned long long>(_count));
    bool ok = writeAll(mfd, buf, static_cast<std::size_t>(n)) &&
              ::fsync(mfd) == 0;
    ::close(mfd);
    ok = ok && ::rename(tmp_path.c_str(), meta_path.c_str()) == 0;
    if (!ok) {
        _error = meta_path + ": " + std::strerror(errno);
        return false;
    }
    _sinceCheckpoint = 0;
    return true;
}

void
JournalWriter::close()
{
    if (_fd < 0)
        return;
    checkpoint();
    ::close(_fd);
    _fd = -1;
}

} // namespace tmi::driver
