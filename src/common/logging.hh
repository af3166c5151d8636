/**
 * @file
 * Status and error reporting helpers in the gem5 style.
 *
 * panic() is for internal invariant violations (a Tmi bug); it aborts.
 * fatal() is for unrecoverable user/configuration errors; it exits.
 * warn() and inform() report conditions without stopping execution.
 */

#ifndef TMI_COMMON_LOGGING_HH
#define TMI_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace tmi
{

/** Verbosity levels for runtime status messages. */
enum class LogLevel
{
    Quiet,   //!< errors only
    Normal,  //!< warn + inform
    Verbose  //!< everything, including debug trace
};

/** Set the global verbosity for warn()/inform()/debugTrace(). */
void setLogLevel(LogLevel level);

/**
 * Report an internal invariant violation and abort.
 *
 * Use when something happened that should never happen regardless of
 * configuration: a genuine Tmi bug.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-level error and exit(1).
 *
 * Use for bad configuration or invalid arguments, not simulator bugs.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Alert the user to suspicious but survivable behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a normal informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a verbose-only trace message. */
void debugTrace(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list ap);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace tmi

/**
 * Runtime assertion that survives NDEBUG builds.
 *
 * Prefer this over assert() for invariants whose violation would
 * silently corrupt simulation results.
 */
#define TMI_ASSERT(cond, ...)                                           \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::tmi::panic("assertion '%s' failed at %s:%d", #cond,       \
                         __FILE__, __LINE__);                           \
        }                                                               \
    } while (0)

#endif // TMI_COMMON_LOGGING_HH
