#include "flags.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace tmi::driver
{

namespace
{

bool
readFile(const std::string &path, std::string &text)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::ostringstream os;
    os << is.rdbuf();
    text = os.str();
    return true;
}

/** Decodes through sweep-spec key @p key. */
Flag
specFlag(std::string name, SweepSpec &spec, const char *key)
{
    return {std::move(name), true,
            [&spec, key](const std::string &v, std::string &err) {
                return applySpecEntry(spec, key, v, err);
            }};
}

/** Exactly one item of a list parser's vocabulary. */
template <typename T>
Flag
oneOfFlag(std::string name, T &field,
          bool (*parseList)(const std::string &, std::vector<T> &,
                            std::string &))
{
    return {std::move(name), true,
            [&field, parseList](const std::string &v,
                                std::string &err) {
                std::vector<T> items;
                if (!parseList(v, items, err))
                    return false;
                if (items.size() != 1) {
                    err = "wants exactly one value, got '" + v + "'";
                    return false;
                }
                field = items.front();
                return true;
            }};
}

/** @p flag, also recording in @p seen that it was given. */
Flag
marking(Flag flag, bool &seen)
{
    flag.apply = [inner = std::move(flag.apply), &seen](
                     const std::string &v, std::string &err) {
        seen = true;
        return inner(v, err);
    };
    return flag;
}

/** Runs @p print and exits 0 (the --list-* flags). */
Flag
listFlag(std::string name, const CliOptions &o,
         bool (*print)(const CliOptions &, std::string &))
{
    return {std::move(name), false,
            [&o, print](const std::string &, std::string &err) {
                if (!print(o, err))
                    return false;
                std::exit(0);
            }};
}

/** "point:SPEC", SPEC one of always|once|once=N|p=X|every=N. */
bool
parseFault(const std::string &arg, FaultList &faults, std::string &err)
{
    std::size_t colon = arg.find(':');
    std::string spec =
        colon == std::string::npos ? "" : arg.substr(colon + 1);
    FaultSpec fs;
    std::uint64_t n = 0;
    double p = 0;
    if (colon == 0 || colon == std::string::npos) {
        err = "wants point:SPEC, got '" + arg + "'";
        return false;
    } else if (spec == "always") {
        fs = FaultSpec::always();
    } else if (spec == "once") {
        fs = FaultSpec::once();
    } else if (spec.starts_with("once=") &&
               parseNumber(spec.substr(5), n)) {
        fs = FaultSpec::once(n);
    } else if (spec.starts_with("p=") && parseNumber(spec.substr(2), p)) {
        fs = FaultSpec::withProbability(p);
    } else if (spec.starts_with("every=") &&
               parseNumber(spec.substr(6), n)) {
        fs.everyNth = n;
    } else {
        err = "bad fault SPEC '" + spec +
              "'; one of always, once, once=N, p=0.5, every=N";
        return false;
    }
    faults.emplace_back(arg.substr(0, colon), fs);
    return true;
}

bool
listWorkloads(const CliOptions &o, std::string &err)
{
    std::vector<const WorkloadInfo *> rows;
    for (const WorkloadInfo &info : workloadRegistry()) {
        if (o.family.empty() || info.family == o.family)
            rows.push_back(&info);
    }
    if (rows.empty()) {
        err = "no workloads in family '" + o.family + "' (one of:";
        for (const std::string &f : workloadFamilies())
            err += " " + f;
        err += ")";
        return false;
    }
    std::printf("%-16s %-8s %-6s %-10s %s\n", "name", "family", "fs?",
                "overhead?", "atomics/asm?");
    for (const WorkloadInfo *info : rows) {
        std::printf("%-16s %-8s %-6s %-10s %s\n", info->name.c_str(),
                    info->family.c_str(),
                    info->knownFalseSharing ? "yes" : "-",
                    info->inOverheadSet ? "yes" : "-",
                    info->usesAtomicsOrAsm ? "yes" : "-");
        for (const ParamSpec &p : info->schema.specs()) {
            std::printf("    --param %-16s %-7s default=%-8s %s\n",
                        p.name.c_str(), paramTypeName(p.type),
                        p.defaultText().c_str(), p.desc.c_str());
        }
    }
    return true;
}

bool
listTreatments(const CliOptions &, std::string &)
{
    for (Treatment t : allTreatments())
        std::printf("%-18s %s\n", treatmentName(t), treatmentDescription(t));
    return true;
}

bool
listFaultPoints(const CliOptions &, std::string &)
{
    for (const FaultPointInfo &info : FaultInjector::allPoints())
        std::printf("%-26s %s\n", info.name, info.summary);
    return true;
}

/** Every shared row, bound to @p o. */
std::vector<Flag>
allRows(CliOptions &o)
{
    SweepSpec &spec = o.sweep;
    ExperimentConfig &run = spec.base.run;
    constexpr unsigned kMaxRetries =
        std::numeric_limits<unsigned>::max() - 1; // + 1 attempt fits
    return {
        // The run config.
        valueFlag("--workload", run.workload),
        oneOfFlag("--treatment", run.treatment, parseTreatmentList),
        specFlag("--threads", spec, "threads"),
        valueFlag("--scale", run.scale),
        specFlag("--period", spec, "period"),
        valueFlag("--threshold", run.repairThreshold),
        specFlag("--interval", spec, "interval"),
        specFlag("--seed", spec, "seed"),
        specFlag("--budget", spec, "budget"),
        specFlag("--param", spec, "param"),
        setFlag("--huge-pages", run.pageShift, hugePageShift),
        setFlag("--glibc-allocator", run.allocator,
                AllocatorKind::GlibcLike),
        oneOfFlag("--placement", run.placement, parsePlacementList),
        {"--fault", true,
         [&run](const std::string &v, std::string &err) {
             return parseFault(v, run.faults, err);
         }},
        valueFlag("--fault-seed", run.faultSeed),
        specFlag("--watchdog", spec, "watchdog"),
        specFlag("--monitor", spec, "monitor"),
        valueFlag("--watchdog-timeout", run.watchdogTimeout),
        valueFlag("--recover-up", spec.base.tmi.robust.recoverUpWindows),
        setFlag("--trace", run.trace.enabled, true),
        {"--ring", true,
         [&run](const std::string &v, std::string &err) {
             obs::TraceConfig tc;
             tc.enabled = true;
             if (!parseNumber(v, tc.ringCapacity, err))
                 return false;
             run.trace = tc;
             return true;
         }},
        setFlag("--stats", run.dumpStats, true),
        {"--plan-in", true,
         [&run](const std::string &v, std::string &err) {
             if (readFile(v, run.planIn))
                 return true;
             err = "cannot read '" + v + "'";
             return false;
         }},

        // Sweep axes, and whole spec files.
        {"--spec", true,
         [&spec](const std::string &v, std::string &err) {
             std::string text;
             if (!readFile(v, text)) {
                 err = "cannot read '" + v + "'";
                 return false;
             }
             if (parseSpecText(spec, text, err))
                 return true;
             err = v + ": " + err;
             return false;
         }},
        specFlag("--workloads", spec, "workloads"),
        specFlag("--treatments", spec, "treatments"),
        specFlag("--placements", spec, "placements"),
        specFlag("--scales", spec, "scales"),
        specFlag("--periods", spec, "periods"),
        specFlag("--fault-points", spec, "fault_points"),
        specFlag("--fault-rates", spec, "fault_rates"),
        specFlag("--seeds", spec, "seeds"),

        // Campaign execution.
        valueFlag("--workers", o.runner.workers),
        {"--retries", true,
         [&o](const std::string &v, std::string &err) {
             unsigned n = 0;
             if (!parseNumber(v, n) || n > kMaxRetries) {
                 err = "'" + v + "' is not an integer in [0, " +
                       std::to_string(kMaxRetries) + "]";
                 return false;
             }
             o.runner.maxAttempts = n + 1;
             return true;
         }},
        {"--timeout-ms", true,
         [&o](const std::string &v, std::string &err) {
             std::chrono::milliseconds::rep ms = 0;
             if (!parseNumber(v, ms) || ms < 0) {
                 err = "'" + v + "' is not a non-negative integer";
                 return false;
             }
             o.runner.jobTimeout = std::chrono::milliseconds(ms);
             return true;
         }},
        setFlag("--no-progress", o.runner.progress, false),
        valueFlag("--csv", o.csvPath),
        valueFlag("--journal-dir", o.shard.journalDir),
        marking(valueFlag("--shards", o.shard.shards), o.shardFlags),
        marking(setFlag("--resume", o.shard.resume, true), o.shardFlags),
        marking(valueFlag("--checkpoint-every", o.shard.checkpointEvery),
                o.shardFlags),
        marking(valueFlag("--kill-budget", o.shard.killBudget),
                o.shardFlags),
        setFlag("--verbose", o.verbose, true),

        // Registries.
        valueFlag("--family", o.family),
        listFlag("--list-workloads", o, listWorkloads),
        listFlag("--list", o, listWorkloads),
        listFlag("--list-treatments", o, listTreatments),
        listFlag("--list-fault-points", o, listFaultPoints),
    };
}

} // namespace

std::vector<Flag>
sharedFlags(CliOptions &opts,
            std::initializer_list<std::string_view> names)
{
    std::vector<Flag> rows = allRows(opts);
    std::vector<Flag> out;
    for (std::string_view name : names) {
        auto it = std::find_if(rows.begin(), rows.end(),
                               [&](const Flag &f) { return f.name == name; });
        if (it == rows.end())
            panic("no shared flag '%s'", std::string(name).c_str());
        out.push_back(*it);
    }
    return out;
}

void
usageError(const char *tool, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", tool, message.c_str());
    std::exit(2);
}

void
parseFlags(const char *tool, const std::vector<Flag> &flags, int argc,
           char **argv, std::vector<std::string> *positional)
{
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (positional && !arg.starts_with('-')) {
            positional->push_back(arg);
            continue;
        }
        auto flag = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag &f) { return f.name == arg; });
        if (flag == flags.end())
            usageError(tool, "unknown flag '" + arg + "'");
        std::string value, err;
        if (flag->takesValue) {
            if (i + 1 >= argc)
                usageError(tool, "'" + arg + "' needs a value");
            value = argv[++i];
        }
        if (!flag->apply(value, err))
            usageError(tool, arg + ": " + err);
    }
}

void
exitOnConfigErrors(const char *tool,
                   const std::vector<ConfigError> &errors)
{
    for (const ConfigError &e : errors) {
        std::fprintf(stderr, "%s: %s: %s\n", tool, e.field.c_str(),
                     e.message.c_str());
    }
    if (!errors.empty())
        std::exit(2);
}

std::string
readFileOrExit(const char *tool, const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        usageError(tool, "cannot read '" + path + "'");
    return text;
}

std::ofstream
writeFileOrExit(const char *tool, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        usageError(tool, "cannot write '" + path + "'");
    return os;
}

void
finishCampaignFlags(const char *tool, CliOptions &opts)
{
    if (opts.shardFlags && opts.shard.journalDir.empty()) {
        usageError(tool, "--shards/--resume/--checkpoint-every/"
                         "--kill-budget need --journal-dir");
    }
    // Progress uses \r; keep it off a stdout that carries the CSV.
    if (opts.csvPath.empty())
        opts.runner.progress = false;
    // Worker-thread log lines would interleave nondeterministically.
    if (!opts.verbose)
        setLogLevel(LogLevel::Quiet);
}

ShardRunStats
runCampaignFlags(const char *tool, const char *tag,
                 const CliOptions &opts,
                 const std::function<void(Executor &)> &body)
{
    if (opts.shard.journalDir.empty()) {
        Executor executor = Executor::inProcess(opts.runner);
        body(executor);
        return executor.stats();
    }
    ShardOptions shard = opts.shard;
    shard.runner = opts.runner;
    shard.runner.progress = false; // children share stderr
    Executor executor = Executor::sharded(std::move(shard));
    try {
        body(executor);
    } catch (const std::exception &e) {
        usageError(tool, e.what());
    }
    const ShardRunStats &stats = executor.stats();
    std::fprintf(stderr,
                 "[%s] %llu shard(s): %llu crash(es), %llu respawn(s), "
                 "%llu poisoned, %llu job(s) resumed from journals\n",
                 tag, static_cast<unsigned long long>(stats.shards),
                 static_cast<unsigned long long>(stats.crashes),
                 static_cast<unsigned long long>(stats.respawns),
                 static_cast<unsigned long long>(stats.poisoned),
                 static_cast<unsigned long long>(stats.resumedJobs));
    return stats;
}

} // namespace tmi::driver
