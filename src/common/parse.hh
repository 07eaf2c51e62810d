/**
 * @file
 * Strict parsing of every number that comes from outside the program:
 * parameter values, `pdr` flags, PDR_* environment variables and
 * profile streams.
 *
 * Each parser consumes the whole string or throws
 * std::invalid_argument naming `what` (the key, flag or variable) and
 * the rejected text: trailing garbage, a sign where none is allowed,
 * overflow, NaN and out-of-range values are all errors, never a
 * silent zero, truncation or wrap-around.
 */

#ifndef PDR_COMMON_PARSE_HH
#define PDR_COMMON_PARSE_HH

#include <cstdint>
#include <limits>
#include <string>

namespace pdr {

/** Throw the parsers' std::invalid_argument: "invalid value 'VALUE'
 *  for WHAT: expected WANT". */
[[noreturn]] void badValue(const std::string &what,
                           const std::string &value,
                           const std::string &want);

/** A base-10 integer in [min, max]. */
long long parseInt(const std::string &what, const std::string &value,
                   long long min, long long max);

/** A base-10 integer >= min; a minus sign is rejected, not wrapped. */
std::uint64_t parseU64(const std::string &what, const std::string &value,
                       std::uint64_t min = 0);

/** A finite number (NaN and infinities are rejected). */
double parseDouble(const std::string &what, const std::string &value);

/** "true" / "1" or "false" / "0". */
bool parseBool(const std::string &what, const std::string &value);

/**
 * A count override from environment variable `name`: 0 (no override)
 * when it is unset or empty, else a whole integer in [1, max].
 */
std::uint64_t envCount(const char *name,
                       std::uint64_t max =
                           std::numeric_limits<std::uint64_t>::max());

} // namespace pdr

#endif // PDR_COMMON_PARSE_HH
