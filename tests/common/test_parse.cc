/** @file Unit tests for the strict number parsers. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/parse.hh"

using namespace pdr;

namespace {

/** The message of the std::invalid_argument `fn` throws ("" if none). */
template <typename Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Parse, IntAcceptsWholeIntegersInRange)
{
    EXPECT_EQ(parseInt("k", "12", 0, 100), 12);
    EXPECT_EQ(parseInt("k", "-3", -5, 5), -3);
    EXPECT_EQ(parseInt("k", "0", 0, 0), 0);
    EXPECT_EQ(parseInt("k", "9223372036854775807", 0,
                       9223372036854775807LL),
              9223372036854775807LL);
}

TEST(Parse, IntRejectsRangeGarbageAndOverflow)
{
    for (const char *bad : {"", "abc", "12abc", "1.5", "0x10", "3 ",
                            "99999999999999999999"}) {
        EXPECT_THROW(parseInt("k", bad, -100, 100), std::invalid_argument)
            << bad;
    }
    EXPECT_THROW(parseInt("k", "101", -100, 100), std::invalid_argument);
    EXPECT_THROW(parseInt("k", "-101", -100, 100), std::invalid_argument);
    EXPECT_NE(errorOf([] { parseInt("--threads", "-3", 0, 64); })
                  .find("--threads"),
              std::string::npos);
}

TEST(Parse, U64RejectsSignsInsteadOfWrapping)
{
    EXPECT_EQ(parseU64("s", "0"), 0u);
    EXPECT_EQ(parseU64("s", "18446744073709551615"),
              18446744073709551615ULL);
    for (const char *bad : {"-1", " -5", "-0", "", "abc", "12abc",
                            "18446744073709551616"}) {
        EXPECT_THROW(parseU64("s", bad), std::invalid_argument) << bad;
    }
    EXPECT_THROW(parseU64("s", "4", 5), std::invalid_argument);
    EXPECT_EQ(parseU64("s", "5", 5), 5u);
}

TEST(Parse, DoubleRejectsNanInfinityAndGarbage)
{
    EXPECT_DOUBLE_EQ(parseDouble("x", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseDouble("x", "-1e-3"), -1e-3);
    for (const char *bad : {"", "abc", "1.5x", "nan", "NaN", "inf",
                            "-inf", "1e999"}) {
        EXPECT_THROW(parseDouble("x", bad), std::invalid_argument) << bad;
    }
    EXPECT_NE(errorOf([] { parseDouble("--tolerance", "abc"); })
                  .find("invalid value 'abc' for --tolerance"),
              std::string::npos);
}

TEST(Parse, BoolTakesTheFourSpellings)
{
    EXPECT_TRUE(parseBool("b", "true"));
    EXPECT_TRUE(parseBool("b", "1"));
    EXPECT_FALSE(parseBool("b", "false"));
    EXPECT_FALSE(parseBool("b", "0"));
    for (const char *bad : {"", "yes", "TRUE", "2"})
        EXPECT_THROW(parseBool("b", bad), std::invalid_argument) << bad;
}

TEST(Parse, EnvCountIsAPositiveIntegerOrNoOverride)
{
    const char *var = "PDR_TEST_PARSE_COUNT";
    unsetenv(var);
    EXPECT_EQ(envCount(var), 0u);
    setenv(var, "", 1);
    EXPECT_EQ(envCount(var), 0u);
    setenv(var, "300", 1);
    EXPECT_EQ(envCount(var), 300u);
    EXPECT_THROW(envCount(var, 299), std::invalid_argument);
    for (const char *bad : {"0", "-3", "300x", "abc", "1.5"}) {
        setenv(var, bad, 1);
        EXPECT_NE(errorOf([&] { envCount(var); }).find(var),
                  std::string::npos)
            << bad;
    }
    unsetenv(var);
}
