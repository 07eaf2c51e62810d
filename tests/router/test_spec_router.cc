/**
 * @file
 * Speculative VC router behaviour: 3-stage head timing via parallel
 * VA + speculative SA, non-spec priority, wasted-slot accounting.
 */

#include <gtest/gtest.h>

#include "harness.hh"

using namespace pdr;
using namespace pdr::test;
using router::RouterConfig;
using router::RouterModel;
using sim::FlitType;

namespace {

RouterConfig
specConfig(int vcs = 2, int buf = 4)
{
    RouterConfig cfg;
    cfg.model = RouterModel::SpecVirtualChannel;
    cfg.numVcs = vcs;
    cfg.bufDepth = buf;
    return cfg;
}

void
injectPacket(SingleRouter &h, int port, int vc, int out_port,
             sim::PacketId id, int len)
{
    for (int i = 0; i < len; i++) {
        FlitType t = len == 1 ? FlitType::HeadTail
                     : i == 0 ? FlitType::Head
                     : i == len - 1 ? FlitType::Tail
                                    : FlitType::Body;
        h.inject(port, SingleRouter::makeFlit(id, t, vc, out_port,
                                              std::uint8_t(i)));
    }
}

} // namespace

TEST(SpecRouter, HeadTakesThreeCyclesLikeWormhole)
{
    SingleRouter h(specConfig());
    h.inject(0, SingleRouter::makeFlit(1, FlitType::HeadTail, 0, 1, 0));
    for (int cycle = 0; cycle < 10; cycle++) {
        auto outs = h.step();
        if (!outs.empty()) {
            // Arrive 1, VA+specSA at 3: same as the wormhole router,
            // one cycle better than non-spec VC.
            EXPECT_EQ(cycle, 3);
            return;
        }
    }
    FAIL() << "flit never departed";
}

TEST(SpecRouter, SuccessfulSpeculationCounted)
{
    SingleRouter h(specConfig());
    injectPacket(h, 0, 0, 1, 1, 2);
    for (int cycle = 0; cycle < 10; cycle++)
        h.step();
    const auto s = h.router().statsAt(h.now());
    EXPECT_GE(s.specSaAttempts, 1u);
    EXPECT_GE(s.specSaUseful, 1u);
    EXPECT_EQ(s.flitsOut, 2u);
}

TEST(SpecRouter, NonSpecHasPriorityOverSpeculative)
{
    SingleRouter h(specConfig(2, 8));
    // Packet 1 streams (non-spec body flits) to output 2; packet 2's
    // head arrives later on another input wanting the same output: its
    // speculative bid must lose to the streaming non-spec flits.
    injectPacket(h, 0, 0, 2, 1, 5);
    std::vector<sim::PacketId> order;
    for (int i = 0; i < 4; i++)     // Packet 1 starts streaming.
        for (auto &[port, f] : h.step())
            order.push_back(f.packet);
    injectPacket(h, 1, 0, 2, 2, 2);
    for (int cycle = 0; cycle < 25; cycle++)
        for (auto &[port, f] : h.step())
            order.push_back(f.packet);
    ASSERT_EQ(order.size(), 7u);
    // All of packet 1 departs before packet 2's head (spec always
    // loses to the non-spec stream on the shared output port).
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(order[std::size_t(i)], 1u) << "position " << i;
    EXPECT_EQ(order[5], 2u);
    // And the failed speculative bids were recorded as non-useful.
    const auto s = h.router().statsAt(h.now());
    EXPECT_GT(s.specSaAttempts, s.specSaUseful);
}

TEST(SpecRouter, SpecWinButVaFailWastesSlot)
{
    // Two heads on different input ports race for the single output VC
    // of port 1 in the same cycle: both bid speculatively; at most one
    // VA grant exists, so a spec switch win without VA is wasted.
    SingleRouter h(specConfig(1, 8));
    injectPacket(h, 0, 0, 1, 1, 2);
    injectPacket(h, 2, 0, 1, 2, 2);
    std::vector<std::pair<sim::PacketId, sim::Cycle>> order;
    for (int cycle = 0; cycle < 30; cycle++)
        for (auto &[port, f] : h.step())
            order.push_back({f.packet, h.now() - 1});
    ASSERT_EQ(order.size(), 4u);
    // No interleaving (single output VC) and the second packet waits
    // for the first tail.
    EXPECT_EQ(order[0].first, order[1].first);
    EXPECT_EQ(order[2].first, order[3].first);
    EXPECT_NE(order[0].first, order[2].first);
}

TEST(SpecRouter, BodyFlitsAreNonSpeculative)
{
    SingleRouter h(specConfig());
    h.autoCredit(true);
    injectPacket(h, 0, 0, 1, 1, 5);
    for (int cycle = 0; cycle < 15; cycle++)
        h.step();
    const auto s = h.router().statsAt(h.now());
    // Only the head speculates: one attempt for a 5-flit packet.
    EXPECT_EQ(s.specSaAttempts, 1u);
    EXPECT_EQ(s.flitsOut, 5u);
}

TEST(SpecRouter, RetriesSpeculationAfterVaFailure)
{
    // Head A holds the only output VC; head B keeps re-bidding (VA +
    // spec SA) every cycle until the VC frees, then departs.
    SingleRouter h(specConfig(1, 8));
    injectPacket(h, 0, 0, 1, 1, 3);
    injectPacket(h, 1, 0, 1, 2, 3);
    int delivered = 0;
    for (int cycle = 0; cycle < 30; cycle++)
        delivered += int(h.step().size());
    EXPECT_EQ(delivered, 6);
    EXPECT_GE(h.router().statsAt(h.now()).specSaAttempts, 2u);
}

TEST(SpecRouter, StreamsAtFullRate)
{
    SingleRouter h(specConfig(2, 8));
    injectPacket(h, 0, 0, 1, 1, 5);
    std::vector<sim::Cycle> departures;
    for (int cycle = 0; cycle < 15; cycle++)
        for (std::size_t n = h.step().size(); n > 0; n--)
            departures.push_back(h.now() - 1);
    ASSERT_EQ(departures.size(), 5u);
    for (std::size_t i = 1; i < 5; i++)
        EXPECT_EQ(departures[i], departures[i - 1] + 1);
}

TEST(SpecRouter, SpecGrantNeedsCreditToBeUseful)
{
    // Zero... one credit on the output VC: head departs, body stalls;
    // speculation cannot conjure buffers.
    SingleRouter h(specConfig(1, 1));
    injectPacket(h, 0, 0, 1, 1, 1);     // Single-flit packet fits.
    int departed = 0;
    for (int cycle = 0; cycle < 10; cycle++)
        departed += int(h.step().size());
    EXPECT_EQ(departed, 1);
    EXPECT_EQ(h.router().credits(1, 0), 0);
}
