#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace tmi
{

namespace
{
/// Atomic: sweep workers read the level while a host main thread may
/// still be configuring it.
std::atomic<LogLevel> globalLevel = LogLevel::Normal;
} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrprintf(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (globalLevel == LogLevel::Quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (globalLevel == LogLevel::Quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
debugTrace(const char *fmt, ...)
{
    if (globalLevel != LogLevel::Verbose)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "trace: %s\n", msg.c_str());
}

} // namespace tmi
