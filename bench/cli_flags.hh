/**
 * @file
 * Flag parsing shared by the `trace_tool` and `scenario_tool` command
 * lines: `--name=V` / `--name V` lookup and strict numeric values.
 */

#ifndef WCRT_BENCH_CLI_FLAGS_HH
#define WCRT_BENCH_CLI_FLAGS_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"

namespace wcrt::bench {

/** Value of `--name=V` or `--name V`, or null when `arg` is not it. */
inline const char *
flagValue(const char *arg, const char *name, int argc, char **argv,
          int &i)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0)
        return nullptr;
    if (arg[n] == '=')
        return arg + n + 1;
    if (arg[n] == '\0' && i + 1 < argc)
        return argv[++i];
    return nullptr;
}

/**
 * Strictly parse a decimal flag value into [min, max], fatal on
 * anything else — atoi/strtoull would silently read "abc" as 0, wrap
 * "-1" into ~1.8e19 or stop at the "k" of "16k".
 */
inline uint64_t
parseCount(const char *flag, const char *value, uint64_t min,
           uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE || v < min || v > max)
        wcrt_fatal("bad ", flag, " '", value, "' (expected ", min, "..",
                   max, ")");
    return v;
}

/** Parse a --jobs value: a worker cap, 0 meaning hardware threads. */
inline unsigned
parseJobs(const char *value)
{
    return static_cast<unsigned>(parseCount("--jobs", value, 0, 4096));
}

} // namespace wcrt::bench

#endif // WCRT_BENCH_CLI_FLAGS_HH
