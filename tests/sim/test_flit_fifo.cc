/** @file Tests for the flit FIFO of a router input buffer (a sim::Ring). */

#include <gtest/gtest.h>

#include "sim/flit.hh"
#include "sim/ring.hh"

using namespace pdr::sim;

namespace {

Flit
flitOf(PacketId packet)
{
    Flit f;
    f.packet = packet;
    return f;
}

/** Pop the oldest flit. */
Flit
take(Ring<Flit> &f)
{
    Flit out = f.front();
    f.pop();
    return out;
}

} // namespace

TEST(FlitFifoTest, FifoOrderAndWraparound)
{
    Ring<Flit> f(3);
    EXPECT_TRUE(f.empty());
    // Push/pop past the capacity several times to exercise the wrap.
    PacketId next = 0;
    PacketId expect = 0;
    for (int round = 0; round < 5; round++) {
        f.push(flitOf(next++));
        f.push(flitOf(next++));
        EXPECT_EQ(f.size(), 2u);
        EXPECT_EQ(f.front().packet, expect);
        EXPECT_EQ(take(f).packet, expect++);
        EXPECT_EQ(take(f).packet, expect++);
        EXPECT_TRUE(f.empty());
    }
}

TEST(FlitFifoTest, FillsToCapacity)
{
    Ring<Flit> f(4);
    for (PacketId i = 0; i < 4; i++)
        f.push(flitOf(i));
    EXPECT_EQ(f.size(), 4u);
    EXPECT_EQ(f.back().packet, 3u);
    for (PacketId i = 0; i < 4; i++)
        EXPECT_EQ(take(f).packet, i);
}

TEST(FlitFifoTest, FrontIsWritableInPlace)
{
    // front() is the buffered flit itself: a field written through it
    // travels with the flit when it is popped, and the flits behind
    // it are left alone.
    Ring<Flit> f(2);
    f.push(flitOf(1));
    f.push(flitOf(2));
    f.front().eligible = 42;
    f.front().vc = 3;
    f.front().vclass = 1;
    Flit out = take(f);
    EXPECT_EQ(out.packet, 1u);
    EXPECT_EQ(out.eligible, 42u);
    EXPECT_EQ(out.vc, 3);
    EXPECT_EQ(out.vclass, 1);
    EXPECT_EQ(f.front().packet, 2u);
    EXPECT_EQ(f.front().eligible, 0u);
    EXPECT_EQ(f.front().vc, 0);
}

TEST(FlitFifoDeathTest, PopEmptyPanics)
{
    Ring<Flit> f(2);
    EXPECT_DEATH(f.pop(), "");
}

TEST(FlitFifoDeathTest, FrontOfEmptyPanics)
{
    Ring<Flit> f(2);
    EXPECT_DEATH(f.front(), "");
}
