/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * panic() is for internal invariant violations (a toolkit bug); it
 * aborts.  fatal() is for user errors (bad configuration, impossible
 * parameters); it exits cleanly with an error code.  warn() reports
 * a condition without stopping the run.
 */

#ifndef WCRT_BASE_LOGGING_HH
#define WCRT_BASE_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace wcrt {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report an internal toolkit bug and abort. */
#define wcrt_panic(...)                                                   \
    ::wcrt::detail::panicImpl(__FILE__, __LINE__,                         \
                              ::wcrt::detail::format(__VA_ARGS__))

/** Report an unrecoverable user error and exit(1). */
#define wcrt_fatal(...)                                                   \
    ::wcrt::detail::fatalImpl(__FILE__, __LINE__,                         \
                              ::wcrt::detail::format(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::format(std::forward<Args>(args)...));
}

} // namespace wcrt

#endif // WCRT_BASE_LOGGING_HH
