/** @file Tests for the fixed-latency channel (delay line): delivery
 *  timing, its ring storage across wraps and growth, and the arrival
 *  bit it sets for its consumer. */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/channel.hh"

using namespace pdr::sim;

TEST(ChannelTest, DeliversAfterLatency)
{
    Channel<int> c(3);
    c.push(42, 10);
    EXPECT_FALSE(c.pop(10).has_value());
    EXPECT_FALSE(c.pop(12).has_value());
    auto v = c.pop(13);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
}

TEST(ChannelTest, ExtraDelayAdds)
{
    Channel<int> c(1);
    c.push(7, 5, 2);    // Ready at 5 + 1 + 2 = 8.
    EXPECT_FALSE(c.pop(7).has_value());
    ASSERT_TRUE(c.pop(8).has_value());
}

TEST(ChannelTest, FifoOrderPreserved)
{
    Channel<int> c(1);
    for (int i = 0; i < 5; i++)
        c.push(i, Cycle(i));
    for (int i = 0; i < 5; i++) {
        auto v = c.pop(Cycle(i + 1));
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
}

TEST(ChannelTest, PopOnlyMatured)
{
    Channel<int> c(2);
    c.push(1, 0);
    c.push(2, 1);
    EXPECT_EQ(*c.pop(2), 1);
    EXPECT_FALSE(c.pop(2).has_value());  // Second not ready until 3.
    EXPECT_EQ(*c.pop(3), 2);
}

TEST(ChannelTest, InFlightCount)
{
    Channel<int> c(4);
    EXPECT_TRUE(c.empty());
    c.push(1, 0);
    c.push(2, 1);
    EXPECT_EQ(c.inFlight(), 2u);
    (void)c.pop(4);
    EXPECT_EQ(c.inFlight(), 1u);
}

TEST(ChannelTest, LatencyOneMinimum)
{
    EXPECT_DEATH(Channel<int>(0), "");
}

TEST(ChannelTest, OutOfOrderPushPanics)
{
    Channel<int> c(1);
    c.push(1, 10, 5);   // Ready 16.
    EXPECT_DEATH(c.push(2, 11, 0), "");  // Ready 12 < 16.
}

TEST(ChannelTest, WrapsForManyRoundsWithoutReordering)
{
    // One push per cycle at latency 2 keeps two or three items in
    // flight, so the ring's head laps its first capacity hundreds of
    // times; every item must come out once, in order, on time.
    Channel<int> c(2);
    int next_out = 0;
    for (int t = 0; t < 1000; t++) {
        c.push(t, Cycle(t));
        while (auto v = c.pop(Cycle(t))) {
            EXPECT_EQ(*v, next_out);
            EXPECT_EQ(Cycle(*v) + 2, Cycle(t));
            next_out++;
        }
        EXPECT_LE(c.inFlight(), 3u);
    }
    EXPECT_EQ(next_out, 998);
}

TEST(ChannelTest, GrowthKeepsOrderAndReadyCycles)
{
    // Advance the head past the start of the storage, then push far
    // more than the first capacity while the ring is wrapped: the
    // doubled ring must keep every (ready, item) pair in order.
    Channel<int> c(1);
    for (int i = 0; i < 3; i++)
        c.push(-1, Cycle(i));
    for (int i = 0; i < 3; i++)
        ASSERT_TRUE(c.pop(Cycle(10)).has_value());
    std::vector<std::pair<Cycle, int>> pushed;
    for (int i = 0; i < 40; i++) {
        Cycle now = 20 + Cycle(i / 3);  // Three pushes per cycle.
        c.push(i, now, 1);
        pushed.push_back({now + 2, i});
    }
    EXPECT_EQ(c.inFlight(), 40u);
    std::vector<std::pair<Cycle, int>> seen;
    c.forEachInFlight(
        [&](Cycle ready, int v) { seen.push_back({ready, v}); });
    EXPECT_EQ(seen, pushed);
    for (const auto &[ready, v] : pushed) {
        EXPECT_FALSE(c.pop(ready - 1).has_value());
        auto got = c.pop(ready);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, v);
    }
    EXPECT_TRUE(c.empty());
}

TEST(ChannelTest, ForEachInFlightIsOldestFirstAfterWrap)
{
    Channel<int> c(1);
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < 3; i++)
            c.push(10 * round + i, Cycle(round));
        if (round < 2) {
            for (int i = 0; i < 3; i++)
                ASSERT_TRUE(c.pop(Cycle(round + 1)).has_value());
        }
    }
    std::vector<int> seen;
    c.forEachInFlight([&](Cycle ready, int v) {
        EXPECT_EQ(ready, 3u);
        seen.push_back(v);
    });
    EXPECT_EQ(seen, (std::vector<int>{20, 21, 22}));
}

TEST(ChannelTest, PushFlagsArrivalBit)
{
    std::uint64_t word = 0;
    Channel<int> c(1);
    c.watchArrivals(&word, 3);
    c.push(1, 0);
    EXPECT_EQ(word, std::uint64_t(1) << 3);
    // Popping leaves the bit to the consumer, who clears it once the
    // channel is empty.
    ASSERT_TRUE(c.pop(1).has_value());
    EXPECT_EQ(word, std::uint64_t(1) << 3);
}

TEST(ChannelTest, StagedPushFlagsArrivalOnlyWhenDrained)
{
    std::uint64_t word = 0;
    std::vector<Cycle> wake{CycleNever};
    Channel<int> c(1);
    c.watch(&wake, 0);
    c.watchArrivals(&word, 63);
    c.setStaged(true);
    c.push(7, 5);
    c.push(8, 6);
    // Staged items are not in the live queue yet: no bit, no wake.
    EXPECT_EQ(word, 0u);
    EXPECT_EQ(wake[0], CycleNever);
    EXPECT_TRUE(c.empty());
    c.drainStaged();
    EXPECT_EQ(word, std::uint64_t(1) << 63);
    EXPECT_EQ(wake[0], 6u);
    EXPECT_EQ(c.inFlight(), 2u);
    EXPECT_EQ(*c.pop(6), 7);
    EXPECT_EQ(*c.pop(7), 8);
}
