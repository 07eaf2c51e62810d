/** @file Tests for the measurement controller (paper Section 5). */

#include <gtest/gtest.h>

#include "traffic/measure.hh"

using namespace pdr::traffic;

TEST(Measure, NoTaggingDuringWarmup)
{
    MeasureController c(1000, 10);
    EXPECT_FALSE(c.tryTag(0));
    EXPECT_FALSE(c.tryTag(999));
    EXPECT_EQ(c.tagged(), 0u);
}

TEST(Measure, TagsExactlySampleSize)
{
    MeasureController c(100, 5);
    int tagged = 0;
    for (int i = 0; i < 20; i++)
        tagged += c.tryTag(100 + i) ? 1 : 0;
    EXPECT_EQ(tagged, 5);
    EXPECT_EQ(c.tagged(), 5u);
}

TEST(Measure, DoneOnlyWhenAllReceived)
{
    MeasureController c(0, 3);
    EXPECT_FALSE(c.done());
    for (int i = 0; i < 3; i++)
        EXPECT_TRUE(c.tryTag(1));
    EXPECT_FALSE(c.done());
    c.taggedReceived(2);
    c.taggedReceived(2);
    EXPECT_FALSE(c.done());
    c.taggedReceived(2);
    EXPECT_TRUE(c.done());
}

TEST(Measure, WarmupBoundaryInclusive)
{
    MeasureController c(50, 1);
    EXPECT_FALSE(c.tryTag(49));
    EXPECT_TRUE(c.tryTag(50));
}

TEST(Measure, LatencySumLowerBound)
{
    MeasureController c(10, 3);
    EXPECT_EQ(c.latencySumLowerBound(10), 0u);
    EXPECT_TRUE(c.tryTag(10));
    EXPECT_TRUE(c.tryTag(12));
    // Two in flight: (15 - 10) + (15 - 12).
    EXPECT_EQ(c.latencySumLowerBound(15), 8u);
    // The first ejects at 14 (latency 4); the second is still in
    // flight: 4 + (15 - 12).
    c.taggedReceived(14);
    EXPECT_EQ(c.latencySumLowerBound(15), 7u);
    EXPECT_EQ(c.latencySumLowerBound(20), 12u);
    EXPECT_TRUE(c.tryTag(20));
    c.taggedReceived(21);
    c.taggedReceived(25);
    ASSERT_TRUE(c.done());
    // Done: the bound is the exact sum, 4 + 9 + 5, at any later clock.
    EXPECT_EQ(c.latencySumLowerBound(26), 18u);
    EXPECT_EQ(c.latencySumLowerBound(1000), 18u);
}

TEST(Measure, Accessors)
{
    MeasureController c(10, 100);
    EXPECT_EQ(c.warmup(), 10u);
    EXPECT_EQ(c.sampleSize(), 100u);
    EXPECT_EQ(c.received(), 0u);
}
