/**
 * @file
 * The command-line front end of experiment_cli, tmi-sweep and
 * tmi-chaos: one table row per flag that sets a field of Config,
 * SweepSpec, RunnerOptions or ShardOptions (flags.cc), each with a
 * strict parser bound to its field; sweep-spec keys decode through
 * applySpecEntry. Each CLI names the rows it accepts and adds its own
 * few flags. Flags apply in order; a usage error prints "TOOL: FLAG:
 * why" and exits 2, and --list-* print and exit 0.
 */

#ifndef TMI_DRIVER_FLAGS_HH
#define TMI_DRIVER_FLAGS_HH

#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/parse_number.hh"
#include "driver/executor.hh"

namespace tmi::driver
{

/** Everything the shared rows set. */
struct CliOptions
{
    SweepSpec sweep;      //!< axes; sweep.base is every CLI's config
    RunnerOptions runner; //!< one worker, progress on (see ctor)
    ShardOptions shard;   //!< runner is copied in at run time
    bool shardFlags = false; //!< a flag that needs --journal-dir
    std::string csvPath; //!< --csv ("" = stdout)
    bool verbose = false;
    std::string family; //!< --family filter for --list-workloads

    CliOptions()
    {
        runner.workers = 1;
        runner.progress = true;
    }
};

struct Flag
{
    std::string name; //!< "--threads"
    bool takesValue = false;
    /** False with @p err on a value the field cannot hold. */
    std::function<bool(const std::string &value, std::string &err)>
        apply;
};

/** Takes a value: parseNumber into an arithmetic @p field, or the
 *  verbatim text into a string one. */
template <typename T>
Flag
valueFlag(std::string name, T &field)
{
    return {std::move(name), true,
            [&field](const std::string &v, std::string &err) {
                if constexpr (std::is_arithmetic_v<T>) {
                    return parseNumber(v, field, err);
                } else {
                    field = v;
                    return true;
                }
            }};
}

/** Takes no value; sets @p field to @p value. */
template <typename T>
Flag
setFlag(std::string name, T &field, std::type_identity_t<T> value)
{
    return {std::move(name), false,
            [&field, value](const std::string &, std::string &) {
                field = value;
                return true;
            }};
}

/** The shared rows bound to @p opts, in the order of @p names (a
 *  name that is not a row is a programming error: panic). */
std::vector<Flag> sharedFlags(CliOptions &opts,
                              std::initializer_list<std::string_view>
                                  names);

/** Apply @p argc arguments of @p argv in order. Arguments without a
 *  leading '-' go to @p positional (null: they are usage errors). */
void parseFlags(const char *tool, const std::vector<Flag> &flags,
                int argc, char **argv,
                std::vector<std::string> *positional = nullptr);

/** Print "TOOL: message" to stderr and exit 2. */
[[noreturn]] void usageError(const char *tool,
                             const std::string &message);

/** Print each error as "TOOL: field: message"; exit 2 if any. */
void exitOnConfigErrors(const char *tool,
                        const std::vector<ConfigError> &errors);

/** @p path's contents, or a usage error. */
std::string readFileOrExit(const char *tool, const std::string &path);

/** @p path opened for writing (truncated), or a usage error. */
std::ofstream writeFileOrExit(const char *tool, const std::string &path);

/** After parsing the campaign flags: the shard flags need
 *  --journal-dir, progress stays off a stdout carrying the CSV, and
 *  logging goes quiet unless --verbose. */
void finishCampaignFlags(const char *tool, CliOptions &opts);

/** Run @p body on the executor @p opts selects: worker threads, or
 *  with --journal-dir shard processes (shard.runner = opts.runner,
 *  progress off) followed by the "[TAG] N shard(s): ..." line. A
 *  supervisor setup error (bad journal directory, mismatched resume)
 *  is a usage error. Returns the stats summed over every run. */
ShardRunStats runCampaignFlags(
    const char *tool, const char *tag, const CliOptions &opts,
    const std::function<void(Executor &)> &body);

} // namespace tmi::driver

#endif // TMI_DRIVER_FLAGS_HH
