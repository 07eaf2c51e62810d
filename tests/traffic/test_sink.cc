/**
 * @file
 * Tests for the ejection sink: per-VC flit-order checking and latency
 * recording.  An ejection VC carries one packet at a time, so a flit
 * must continue its VC's packet at the next seq or be a head on an
 * idle VC; anything else panics.
 */

#include <gtest/gtest.h>

#include "traffic/sink.hh"

using namespace pdr;
using namespace pdr::traffic;

namespace {

constexpr sim::NodeId kNode = 3;

struct SinkJig
{
    sim::Channel<sim::Flit> flits{1};
    MeasureController ctrl{0, 100};
    stats::LatencyStats latency;
    Sink sink;
    sim::Cycle now = 0;

    explicit SinkJig(int vcs = 2, int len = 3)
        : sink(kNode, len, vcs, ctrl, &flits, latency)
    {
        sink.recordDeliveries(true);
    }

    /** Eject flit `seq` of packet `id` on `vc`, created at `ctime`:
     *  push it, advance one cycle and tick the sink. */
    void
    eject(sim::PacketId id, int vc, int seq, int len,
          sim::Cycle ctime = 0)
    {
        sim::Flit f;
        f.packet = id;
        f.vc = vc;
        f.seq = std::uint8_t(seq);
        f.dest = kNode;
        f.ctime = ctime;
        if (len == 1)
            f.type = sim::FlitType::HeadTail;
        else if (seq == 0)
            f.type = sim::FlitType::Head;
        else if (seq == len - 1)
            f.type = sim::FlitType::Tail;
        else
            f.type = sim::FlitType::Body;
        flits.push(f, now);
        now++;
        sink.tick(now);
    }
};

} // namespace

TEST(SinkTest, InterleavedVcsEjectAndRecordLatency)
{
    // Packets 10 (VC 0) and 20 (VC 1) alternate flit by flit.
    SinkJig j;
    j.eject(10, 0, 0, 3, 0);
    j.eject(20, 1, 0, 3, 1);
    j.eject(10, 0, 1, 3, 0);
    j.eject(20, 1, 1, 3, 1);
    j.eject(10, 0, 2, 3, 0);
    j.eject(20, 1, 2, 3, 1);
    EXPECT_EQ(j.sink.packets(), 2u);
    EXPECT_EQ(j.sink.totalFlits(), 6u);

    std::vector<Delivery> log;
    j.sink.takeDeliveries(log);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].packet, 10u);
    EXPECT_EQ(log[0].dest, kNode);
    EXPECT_EQ(log[0].at, 5u);
    EXPECT_EQ(log[0].latency, 5u);
    EXPECT_EQ(log[1].packet, 20u);
    EXPECT_EQ(log[1].at, 6u);
    EXPECT_EQ(log[1].latency, 5u);
    EXPECT_EQ(j.latency.unmeasuredCount(), 2u);

    // The log was handed over; both VCs are idle again and take new
    // heads.
    log.clear();
    j.sink.takeDeliveries(log);
    EXPECT_TRUE(log.empty());
    j.eject(30, 1, 0, 3);
    j.eject(31, 0, 0, 3);
    EXPECT_EQ(j.sink.totalFlits(), 8u);
}

TEST(SinkDeathTest, SkippedSeqPanics)
{
    SinkJig j;
    j.eject(10, 0, 0, 3);
    EXPECT_DEATH(j.eject(10, 0, 2, 3), "assertion");
}

TEST(SinkDeathTest, BodyOnIdleVcPanics)
{
    // A packet that changes VC arrives as a body flit on a VC with no
    // packet in progress.
    SinkJig j;
    j.eject(10, 0, 0, 3);
    EXPECT_DEATH(j.eject(10, 1, 1, 3), "assertion");
}

TEST(SinkDeathTest, HeadOnBusyVcPanics)
{
    // Packet 10 has not ended on VC 0 when packet 20's head arrives.
    SinkJig j;
    j.eject(10, 0, 0, 3);
    j.eject(10, 0, 1, 3);
    EXPECT_DEATH(j.eject(20, 0, 0, 3), "assertion");
}
