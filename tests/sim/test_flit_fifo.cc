/** @file Tests for the fixed-capacity flit FIFO (router input buffer). */

#include <gtest/gtest.h>

#include "sim/flit.hh"

using namespace pdr::sim;

namespace {

Flit
flitOf(PacketId packet)
{
    Flit f;
    f.packet = packet;
    return f;
}

} // namespace

TEST(FlitFifoTest, FifoOrderAndWraparound)
{
    FlitFifo f;
    f.init(3);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.capacity(), 3);
    // Push/pop past the capacity several times to exercise the wrap.
    PacketId next = 0;
    PacketId expect = 0;
    for (int round = 0; round < 5; round++) {
        f.push(flitOf(next++));
        f.push(flitOf(next++));
        EXPECT_EQ(f.size(), 2);
        EXPECT_EQ(f.front().packet, expect);
        EXPECT_EQ(f.pop().packet, expect++);
        EXPECT_EQ(f.pop().packet, expect++);
        EXPECT_TRUE(f.empty());
    }
}

TEST(FlitFifoTest, FillsToCapacity)
{
    FlitFifo f;
    f.init(4);
    for (PacketId i = 0; i < 4; i++)
        f.push(flitOf(i));
    EXPECT_EQ(f.size(), 4);
    for (PacketId i = 0; i < 4; i++)
        EXPECT_EQ(f.pop().packet, i);
}

TEST(FlitFifoTest, FrontIsWritableInPlace)
{
    // front() is the buffered flit itself: a field written through it
    // travels with the flit when it is popped, and the flits behind
    // it are left alone.
    FlitFifo f;
    f.init(2);
    f.push(flitOf(1));
    f.push(flitOf(2));
    f.front().eligible = 42;
    f.front().vc = 3;
    f.front().vclass = 1;
    Flit out = f.pop();
    EXPECT_EQ(out.packet, 1u);
    EXPECT_EQ(out.eligible, 42u);
    EXPECT_EQ(out.vc, 3);
    EXPECT_EQ(out.vclass, 1);
    EXPECT_EQ(f.front().packet, 2u);
    EXPECT_EQ(f.front().eligible, 0u);
    EXPECT_EQ(f.front().vc, 0);
}

TEST(FlitFifoDeathTest, OverflowPanics)
{
    FlitFifo f;
    f.init(2);
    f.push(flitOf(0));
    f.push(flitOf(1));
    EXPECT_DEATH(f.push(flitOf(2)), "");
}

TEST(FlitFifoDeathTest, PopEmptyPanics)
{
    FlitFifo f;
    f.init(2);
    EXPECT_DEATH(f.pop(), "");
}
