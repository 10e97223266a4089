/**
 * @file
 * Small string utilities shared by the data generators and workloads,
 * and the strict number rules every command line and scenario file
 * reads its counts and scales with.
 */

#ifndef WCRT_BASE_STRINGS_HH
#define WCRT_BASE_STRINGS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wcrt {

/** Split on a single delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Split on runs of whitespace; empty tokens are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** True when text starts with the given prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** FNV-1a 64-bit hash; stable across platforms for partitioning. */
uint64_t fnv1a(std::string_view text);

/**
 * Strictly parse a decimal count in [min, max]: ASCII digits only.
 * No sign, space, suffix or overflow — atoi and streams would read
 * "abc" as 0, wrap "-1" into ~1.8e19 or stop at the "k" of "16k".
 *
 * @return false, leaving `out` untouched, on anything else.
 */
bool parseDecimalCount(const std::string &text, uint64_t min,
                       uint64_t max, uint64_t &out);

/**
 * Strictly parse a positive, finite decimal such as "0.25": digits
 * and at most one dot, no sign, exponent, hex, inf or nan.
 *
 * @return false, leaving `out` untouched, on anything else.
 */
bool parsePositiveDecimal(const std::string &text, double &out);

} // namespace wcrt

#endif // WCRT_BASE_STRINGS_HH
