#include "common/parse.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/logging.hh"

namespace pdr {

namespace {

/** strtoull over the whole of `value`: false on empty text, a sign,
 *  trailing characters or overflow. */
bool
wholeU64(const std::string &value, std::uint64_t &out)
{
    // strtoull negates a signed input instead of rejecting it.
    if (value.find('-') != std::string::npos)
        return false;
    const char *s = value.c_str();
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0' && errno != ERANGE;
}

} // namespace

void
badValue(const std::string &what, const std::string &value,
         const std::string &want)
{
    throw std::invalid_argument("invalid value '" + value + "' for " +
                                what + ": expected " + want);
}

long long
parseInt(const std::string &what, const std::string &value,
         long long min, long long max)
{
    const char *s = value.c_str();
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE)
        badValue(what, value, "an integer");
    if (v < min || v > max) {
        badValue(what, value,
                 csprintf("an integer in [%lld, %lld]", min, max));
    }
    return v;
}

std::uint64_t
parseU64(const std::string &what, const std::string &value,
         std::uint64_t min)
{
    std::uint64_t v = 0;
    if (!wholeU64(value, v))
        badValue(what, value, "a non-negative integer");
    if (v < min) {
        badValue(what, value,
                 csprintf("an integer >= %llu", (unsigned long long)min));
    }
    return v;
}

double
parseDouble(const std::string &what, const std::string &value)
{
    const char *s = value.c_str();
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v))
        badValue(what, value, "a finite number");
    return v;
}

bool
parseBool(const std::string &what, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    badValue(what, value, "true/false");
}

std::uint64_t
envCount(const char *name, std::uint64_t max)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return 0;
    std::uint64_t v = 0;
    if (!wholeU64(env, v) || v < 1)
        badValue(name, env, "a positive integer");
    if (v > max) {
        badValue(name, env,
                 csprintf("an integer in [1, %llu]",
                          (unsigned long long)max));
    }
    return v;
}

} // namespace pdr
