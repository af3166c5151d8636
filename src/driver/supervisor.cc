#include "supervisor.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <type_traits>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/fnv.hh"

namespace tmi::driver
{

namespace
{

constexpr char kManifestName[] = "MANIFEST";

/** Hashes one job-config value, of any field type on the lists. */
template <class T>
void
mix(Fnv1a &h, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        h.str(v);
    } else if constexpr (std::is_same_v<T, double>) {
        h.u64(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
        h.u64(static_cast<std::uint64_t>(v));
    } else if constexpr (requires { v.second; }) {
        mix(h, v.first);
        mix(h, v.second);
    } else if constexpr (requires { v.size(); }) {
        h.u64(v.size());
        for (const auto &e : v)
            mix(h, e);
    } else if constexpr (std::is_same_v<T, FaultSpec>) {
        // The structured bindings stop compiling when a field is
        // added, so the fingerprint cannot silently skip it.
        const auto &[probability, fireAt, everyNth, maxFires,
                     windowStart, windowEnd, burstLen, burstPeriod] = v;
        mix(h, probability);
        for (std::uint64_t u : {fireAt, everyNth, maxFires, windowStart,
                                windowEnd, burstLen, burstPeriod})
            mix(h, u);
    } else {
        static_assert(std::is_same_v<T, obs::TraceConfig>);
        const auto &[enabled, ringCapacity] = v;
        mix(h, enabled);
        mix(h, ringCapacity);
    }
}

/** One field's values across every job, hashed in job order. */
template <class Get>
std::uint64_t
digestOf(const std::vector<Job> &jobs, Get get)
{
    Fnv1a h;
    for (const Job &job : jobs)
        mix(h, get(job));
    return h.h;
}

/** (name, digest) of every job-config field a resume must reproduce:
 *  each ExperimentConfig list field ("run.*"), the fault axis echo
 *  ("job.*") and tmi.robust.recoverUpWindows, each hashed over all
 *  jobs in order. */
std::vector<std::pair<std::string, std::uint64_t>>
fieldDigests(const std::vector<Job> &jobs)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
#define TMI_DIGEST(label, field)                                              \
    out.emplace_back(label,                                                   \
                     digestOf(jobs, [](const Job &j) -> const auto & {        \
                         return j.field;                                      \
                     }));
#define TMI_DIGEST_RUN_FIELD(type, name, ...)                                 \
    TMI_DIGEST("run." #name, config.run.name)
    TMI_EXPERIMENT_CONFIG_FIELDS(TMI_DIGEST_RUN_FIELD)
    TMI_DIGEST("job.faultPoint", faultPoint)
    TMI_DIGEST("job.faultRate", faultRate)
    // The one deep-template field a CLI sets (tmi-chaos --recover-up).
    TMI_DIGEST("tmi.robust.recoverUpWindows",
               config.tmi.robust.recoverUpWindows)
#undef TMI_DIGEST_RUN_FIELD
#undef TMI_DIGEST
    return out;
}

/** mkdir -p, POSIX-only (no <filesystem> in the child path). */
bool
makeDirs(const std::string &dir)
{
    std::string prefix;
    for (std::size_t i = 0; i <= dir.size(); ++i) {
        if (i < dir.size() && dir[i] != '/')
            continue;
        prefix = dir.substr(0, i);
        if (prefix.empty() || prefix == ".")
            continue;
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

std::string
describeExit(int status)
{
    char buf[96];
    if (WIFSIGNALED(status)) {
        std::snprintf(buf, sizeof(buf), "signal %d (%s)",
                      WTERMSIG(status),
                      strsignal(WTERMSIG(status)));
    } else if (WIFEXITED(status)) {
        std::snprintf(buf, sizeof(buf), "exit status %d",
                      WEXITSTATUS(status));
    } else {
        std::snprintf(buf, sizeof(buf), "wait status 0x%x", status);
    }
    return buf;
}

} // namespace

/** Everything the parent tracks about one shard. */
struct ShardSupervisor::ShardState
{
    unsigned index = 0;
    std::uint64_t begin = 0, end = 0; //!< global id range [b, e)
    std::string path;                 //!< journal file
    std::set<std::uint64_t> done;     //!< durably journaled ids
    std::map<std::uint64_t, unsigned> kills;
    unsigned generation = 0; //!< respawns so far
    pid_t pid = -1;
    bool settled = false;

    std::vector<std::uint64_t>
    pending() const
    {
        std::vector<std::uint64_t> ids;
        for (std::uint64_t id = begin; id < end; ++id) {
            if (!done.count(id))
                ids.push_back(id);
        }
        return ids;
    }
};

ShardSupervisor::ShardSupervisor(ShardOptions options)
    : _opts(std::move(options))
{
    if (_opts.shards == 0) {
        _opts.shards = std::max(
            1u, std::thread::hardware_concurrency());
    }
    if (_opts.killBudget == 0)
        _opts.killBudget = 1;
    if (!_opts.onEvent) {
        _opts.onEvent = [](const std::string &line) {
            std::fprintf(stderr, "%s\n", line.c_str());
        };
    }
}

std::pair<std::uint64_t, std::uint64_t>
ShardSupervisor::shardRange(std::uint64_t jobs, unsigned shards,
                            unsigned shard)
{
    // Contiguous split, remainder spread over the leading shards.
    std::uint64_t base = jobs / shards;
    std::uint64_t extra = jobs % shards;
    std::uint64_t begin = shard * base + std::min<std::uint64_t>(
                                             shard, extra);
    std::uint64_t len = base + (shard < extra ? 1 : 0);
    return {begin, begin + len};
}

std::uint64_t
ShardSupervisor::fingerprintJobs(const std::vector<Job> &jobs)
{
    Fnv1a h;
    h.u64(jobs.size());
    for (const auto &[name, digest] : fieldDigests(jobs))
        h.str(name).u64(digest);
    return h.h;
}

std::string
ShardSupervisor::journalPath(const std::string &dir, unsigned shard)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/shard-%03u.journal", shard);
    return dir + buf;
}

void
ShardSupervisor::writeManifest(const std::string &path,
                               const std::vector<Job> &jobs) const
{
    std::string text = std::string("tmi-campaign-manifest v1\n") +
                       "jobs=" + std::to_string(jobs.size()) + "\n" +
                       "shards=" + std::to_string(_opts.shards) + "\n" +
                       "fingerprint=" + hashHex(fingerprintJobs(jobs)) +
                       "\n";
    // Per-field digests after the fingerprint, so a refused resume
    // can name what changed.
    for (const auto &[name, digest] : fieldDigests(jobs))
        text += "field." + name + "=" + hashHex(digest) + "\n";
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw std::runtime_error(tmp + ": " + std::strerror(errno));
    bool ok = ::write(fd, text.data(), text.size()) ==
                  static_cast<ssize_t>(text.size()) &&
              ::fsync(fd) == 0;
    ::close(fd);
    if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error(path + ": " + std::strerror(errno));
}

unsigned
ShardSupervisor::checkManifest(const std::string &path,
                               const std::vector<Job> &jobs) const
{
    std::ifstream in(path);
    std::map<std::string, std::string> kv;
    for (std::string line; std::getline(in, line);) {
        std::size_t eq = line.find('=');
        if (eq != std::string::npos)
            kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    auto shards = std::strtoul(kv["shards"].c_str(), nullptr, 10);
    if (!in.eof() || kv["fingerprint"].empty() || shards == 0)
        throw std::runtime_error(path + ": unreadable");
    if (kv["fingerprint"] != hashHex(fingerprintJobs(jobs))) {
        // Name what changed: the job count, else each field whose
        // recorded digest differs.
        bool same_count = kv["jobs"] == std::to_string(jobs.size());
        std::string changed = same_count ? "" : "the job count";
        for (const auto &[name, digest] : fieldDigests(jobs)) {
            auto it = kv.find("field." + name);
            if (same_count && it != kv.end() &&
                it->second != hashHex(digest))
                changed += (changed.empty() ? "" : ", ") + name;
        }
        throw std::runtime_error(
            path + ": spec mismatch" +
            (changed.empty() ? "" : " in " + changed) +
            " (the resume spec must expand to the journaled campaign;"
            " use a fresh --journal-dir to run it)");
    }
    return static_cast<unsigned>(shards);
}

void
ShardSupervisor::childMain(ShardState &shard,
                           const std::vector<Job> &jobs)
{
#ifdef __linux__
    // Die with the supervisor: a kill -9 on the orchestrator must
    // not leave orphan workers appending to the journals it thinks
    // are quiescent on resume.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1)
        ::_exit(0); // parent already gone
#endif

    JournalWriter journal(shard.path, _opts.checkpointEvery);
    if (!journal.open())
        ::_exit(102);

    // The shard's remaining work, in id order; local dense ids map
    // back to global ids by position.
    std::vector<Job> pending;
    std::vector<std::uint64_t> global_ids;
    for (std::uint64_t id = shard.begin; id < shard.end; ++id) {
        if (shard.done.count(id))
            continue;
        pending.push_back(jobs[id]);
        global_ids.push_back(id);
    }

    RunnerOptions ro = _opts.runner;
    ro.progress = false;
    ro.collectResults = false; // the journal is the result
    if (_opts.childFaultHook) {
        auto inner = ro.failInjector;
        auto hook = _opts.childFaultHook;
        unsigned generation = shard.generation;
        ro.failInjector = [hook, inner, &global_ids, generation](
                              const Job &job, unsigned attempt) {
            hook(job, global_ids[job.id], generation);
            return inner ? inner(job, attempt) : false;
        };
    }

    bool journal_ok = true;
    FunctionSink sink([&](const JobResult &r) {
        journal_ok = journal.append(JournalRecord::capture(
                         global_ids[r.job.id], r)) &&
                     journal_ok;
    });
    Runner runner(ro);
    runner.run(std::move(pending), &sink);
    journal.close(); // final checkpoint + fsync
    // _exit, not exit: the child must not run the parent's atexit
    // hooks or flush its inherited stdio buffers a second time.
    ::_exit(journal_ok ? 0 : 103);
}

void
ShardSupervisor::spawnShard(ShardState &shard,
                            const std::vector<Job> &jobs)
{
    pid_t pid = ::fork();
    if (pid < 0) {
        throw std::runtime_error(std::string{"fork: "} +
                                 std::strerror(errno));
    }
    if (pid == 0)
        childMain(shard, jobs); // never returns
    shard.pid = pid;
}

void
ShardSupervisor::reapShard(ShardState &shard, int status)
{
    shard.pid = -1;

    // Re-read what actually became durable (ids only; flat memory).
    shard.done.clear();
    for (std::uint64_t id = shard.begin; id < shard.end; ++id)
        if (shard.kills.count(id) &&
            shard.kills.at(id) >= _opts.killBudget)
            shard.done.insert(id); // quarantined earlier
    JournalRecovery scan = scanJournal(
        shard.path, [&](const JournalRecord &r, std::uint64_t) {
            shard.done.insert(r.jobId);
        });
    if (scan.tornBytes > 0)
        ++_stats.tornRecords;

    std::vector<std::uint64_t> pending = shard.pending();
    bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (clean && pending.empty()) {
        shard.settled = true;
        return;
    }

    // Crash (or a child that exited without finishing its range).
    ++_stats.crashes;
    char line[192];
    std::snprintf(
        line, sizeof(line),
        "[shard %u] crashed: %s; %zu job(s) incomplete "
        "(gen %u)",
        shard.index, describeExit(status).c_str(), pending.size(),
        shard.generation);
    _opts.onEvent(line);

    if (!pending.empty()) {
        // Children journal in id order, so the first unjournaled job
        // is the one that was in flight (exact for 1 in-child
        // worker; the closest attribution otherwise).
        std::uint64_t suspect = pending.front();
        unsigned kills = ++shard.kills[suspect];
        if (kills >= _opts.killBudget) {
            JournalRecord rec;
            rec.jobId = suspect;
            rec.status = JobStatus::Poisoned;
            rec.attempts = kills;
            std::snprintf(line, sizeof(line),
                          "poison job: killed shard %u worker %u "
                          "times (last: %s)",
                          shard.index, kills,
                          describeExit(status).c_str());
            rec.error = line;
            JournalWriter journal(shard.path, 1);
            if (journal.open())
                journal.append(rec);
            journal.close();
            shard.done.insert(suspect);
            ++_stats.poisoned;
            std::snprintf(line, sizeof(line),
                          "[shard %u] job %" PRIu64
                          " quarantined as poison after %u kills",
                          shard.index, suspect, kills);
            _opts.onEvent(line);
            pending = shard.pending();
        }
    }

    if (pending.empty()) {
        shard.settled = true;
        return;
    }
    if (shard.generation >= _opts.maxRespawnsPerShard) {
        // Safety net: journal explicit failures so the merge (and
        // the CSV) still accounts for every job.
        JournalWriter journal(shard.path, 1);
        if (journal.open()) {
            for (std::uint64_t id : pending) {
                JournalRecord rec;
                rec.jobId = id;
                rec.status = JobStatus::Failed;
                rec.error = "shard respawn budget exhausted";
                journal.append(rec);
                shard.done.insert(id);
            }
        }
        journal.close();
        std::snprintf(line, sizeof(line),
                      "[shard %u] respawn budget exhausted; %zu "
                      "job(s) failed",
                      shard.index, pending.size());
        _opts.onEvent(line);
        shard.settled = true;
        return;
    }
    ++shard.generation;
    ++_stats.respawns;
}

ShardRunStats
ShardSupervisor::run(std::vector<Job> jobs, ResultSink *sink)
{
    _stats = {};
    auto started = std::chrono::steady_clock::now();

    // Delivery order is input order, like Runner::run.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].id = i;
    if (_opts.journalDir.empty())
        throw std::runtime_error("ShardOptions.journalDir is empty");
    if (!makeDirs(_opts.journalDir)) {
        throw std::runtime_error(_opts.journalDir + ": " +
                                 std::strerror(errno));
    }

    unsigned shards = _opts.shards;
    if (jobs.size() < shards)
        shards = std::max<std::size_t>(1, jobs.size());

    // The manifest pins this directory to one expansion: resuming a
    // different spec (or shard split) into it would interleave
    // unrelated journals into one CSV.
    std::string manifest = _opts.journalDir + "/" + kManifestName;
    bool have_manifest = ::access(manifest.c_str(), R_OK) == 0;
    if (have_manifest) {
        if (!_opts.resume) {
            throw std::runtime_error(
                manifest + " exists: this directory already holds a "
                           "campaign (pass resume to continue it)");
        }
        // The journal<->range mapping is fixed at first run; a
        // different --shards on resume silently adopts the original.
        shards = checkManifest(manifest, jobs);
    }
    _opts.shards = shards;
    if (!have_manifest)
        writeManifest(manifest, jobs);
    _stats.shards = shards;

    // Recover per-shard state (resumed jobs already journaled).
    std::vector<ShardState> states(shards);
    for (unsigned s = 0; s < shards; ++s) {
        ShardState &st = states[s];
        st.index = s;
        std::tie(st.begin, st.end) =
            shardRange(jobs.size(), shards, s);
        st.path = journalPath(_opts.journalDir, s);
        JournalRecovery scan = scanJournal(
            st.path, [&](const JournalRecord &r, std::uint64_t) {
                if (r.jobId >= st.begin && r.jobId < st.end)
                    st.done.insert(r.jobId);
            });
        if (scan.schemaMismatch) {
            throw std::runtime_error(
                schemaMismatchMessage(st.path, scan.foundSchema));
        }
        if (scan.tornBytes > 0)
            ++_stats.tornRecords;
        _stats.resumedJobs += st.done.size();
        st.settled = st.pending().empty();
    }

    // Spawn every unsettled shard, then supervise until all settle.
    // reapShard() may un-settle nothing but can leave a shard
    // wanting a respawn (settled == false, pid == -1).
    auto spawn_ready = [&] {
        for (ShardState &st : states) {
            if (!st.settled && st.pid < 0)
                spawnShard(st, jobs);
        }
    };
    spawn_ready();
    for (;;) {
        bool any_live = false;
        for (ShardState &st : states)
            any_live = any_live || st.pid >= 0;
        if (!any_live)
            break;
        int status = 0;
        pid_t pid = ::waitpid(-1, &status, 0);
        if (pid < 0) {
            if (errno == EINTR)
                continue;
            break; // ECHILD: nothing left to reap
        }
        for (ShardState &st : states) {
            if (st.pid == pid) {
                reapShard(st, status);
                break;
            }
        }
        spawn_ready();
    }

    // Merge: shards cover [0, N) contiguously, so walking them in
    // index order yields global id order. Pass 1 per shard indexes
    // id -> file offset (dedup: last record wins); pass 2 re-reads
    // one record at a time -- memory stays flat at any matrix size.
    _stats.sweep.total = jobs.size();
    for (ShardState &st : states) {
        std::map<std::uint64_t, std::uint64_t> offsets;
        scanJournal(st.path, [&](const JournalRecord &r,
                                 std::uint64_t offset) {
            if (r.jobId >= st.begin && r.jobId < st.end)
                offsets[r.jobId] = offset;
        });
        for (std::uint64_t id = st.begin; id < st.end; ++id) {
            JobResult jr;
            jr.job = jobs[id];
            auto it = offsets.find(id);
            JournalRecord rec;
            if (it != offsets.end() &&
                readRecordAt(st.path, it->second, rec)) {
                rec.restore(jr);
            } else {
                jr.status = JobStatus::Failed;
                jr.error = "no journal record (shard never "
                           "completed this job)";
            }
            _stats.sweep.count(jr);
            if (sink)
                sink->onResult(jr);
        }
    }

    _stats.sweep.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - started)
            .count();
    return _stats;
}

} // namespace tmi::driver
