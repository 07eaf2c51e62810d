/**
 * @file
 * Argument handling shared by the example programs.
 *
 * A positional argument that is a simulation parameter is checked by
 * the parameter schema (src/api/params.cc), which names the key in its
 * error and holds the only copy of the key's valid range.  Each
 * example's body runs under guardedMain: a std::exception it throws --
 * a malformed argument, a failed sweep point -- prints `error: ...` on
 * stderr and makes the exit status 1.
 */

#ifndef PDR_EXAMPLES_EXAMPLE_MAIN_HH
#define PDR_EXAMPLES_EXAMPLE_MAIN_HH

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "api/params.hh"
#include "common/parse.hh"

namespace pdr::example {

/** Throw naming `usage` when more than `max` arguments were given. */
inline void
checkArgCount(int argc, int max, const char *usage)
{
    if (argc - 1 > max) {
        throw std::invalid_argument(
            std::string("too many arguments (usage: ") + usage + ")");
    }
}

/**
 * Positional argument `i` read as a value of parameter `key`, or
 * `fallback` when it is absent.  A value the schema rejects throws
 * std::invalid_argument naming `key`.
 */
inline double
paramArg(int argc, char **argv, int i, const char *key, double fallback)
{
    if (i >= argc)
        return fallback;
    api::SimConfig probe;
    api::params::set(probe, key, argv[i]);
    return parseDouble(key, argv[i]);
}

/** Return body(argc, argv), or 1 after printing what it threw. */
inline int
guardedMain(int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace pdr::example

#endif // PDR_EXAMPLES_EXAMPLE_MAIN_HH
