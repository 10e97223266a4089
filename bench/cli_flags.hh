/**
 * @file
 * Flag parsing shared by every bench binary, `trace_tool` and
 * `scenario_tool`: `--name=V` / `--name V` lookup, fatal wrappers
 * around base/strings' strict number rules and the WCRT_SCALE dataset
 * scale.
 */

#ifndef WCRT_BENCH_CLI_FLAGS_HH
#define WCRT_BENCH_CLI_FLAGS_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "base/strings.hh"

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

/** Parse a decimal flag value into [min, max] (parseDecimalCount()),
 *  fatal on anything else. */
inline uint64_t
parseCount(const char *flag, const char *value, uint64_t min,
           uint64_t max)
{
    uint64_t v = 0;
    if (!parseDecimalCount(value, min, max, v))
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

/**
 * Parse a dataset scale (parsePositiveDecimal()), fatal on anything
 * else — atof would silently read "abc" as 0 and "0.05x" as 0.05.
 *
 * @param what Flag or variable name for the error message.
 */
inline double
parseScale(const char *what, const char *value)
{
    double v = 0.0;
    if (!parsePositiveDecimal(value, v))
        wcrt_fatal("bad ", what, " '", value,
                   "' (expected a positive decimal)");
    return v;
}

/** Dataset scale from WCRT_SCALE (default 0.5), fatal if malformed. */
inline double
benchScale()
{
    if (const char *s = std::getenv("WCRT_SCALE"))
        return parseScale("WCRT_SCALE", s);
    return 0.5;
}

} // namespace wcrt::bench

#endif // WCRT_BENCH_CLI_FLAGS_HH
