/**
 * @file
 * Non-speculative VC router behaviour: 4-stage head timing, per-flit
 * switch allocation, VC interleaving on a physical channel, output-VC
 * allocation and release.
 */

#include <gtest/gtest.h>

#include <map>

#include "harness.hh"

using namespace pdr;
using namespace pdr::test;
using router::RouterConfig;
using router::RouterModel;
using sim::FlitType;

namespace {

RouterConfig
vcConfig(int vcs = 2, int buf = 4)
{
    RouterConfig cfg;
    cfg.model = RouterModel::VirtualChannel;
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

TEST(VcRouter, HeadTakesFourCyclesThroughRouter)
{
    SingleRouter h(vcConfig());
    h.inject(0, SingleRouter::makeFlit(1, FlitType::HeadTail, 0, 1, 0));
    for (int cycle = 0; cycle < 10; cycle++) {
        auto outs = h.step();
        if (!outs.empty()) {
            // Arrive 1, VA 3, SA 4: one cycle later than wormhole.
            EXPECT_EQ(cycle, 4);
            return;
        }
    }
    FAIL() << "flit never departed";
}

TEST(VcRouter, VcidRewrittenAtOutput)
{
    SingleRouter h(vcConfig(2));
    injectPacket(h, 0, 1, 2, 9, 2);
    std::vector<sim::Flit> out;
    for (int cycle = 0; cycle < 15; cycle++)
        for (auto &[port, f] : h.step())
            out.push_back(f);
    ASSERT_EQ(out.size(), 2u);
    // Both flits carry the same (rewritten) output vcid.
    EXPECT_EQ(out[0].vc, out[1].vc);
    EXPECT_GE(out[0].vc, 0);
    EXPECT_LT(out[0].vc, 2);
}

TEST(VcRouter, TwoVcsShareOnePhysicalOutput)
{
    // Packets on different input VCs of the SAME port, to the same
    // output port: flits may interleave cycle-by-cycle on the output
    // (the defining feature of VC flow control, Figure 3).
    SingleRouter h(vcConfig(2, 8));
    injectPacket(h, 0, 0, 2, 1, 4);
    injectPacket(h, 0, 1, 2, 2, 4);
    std::map<sim::PacketId, int> seen;
    sim::Cycle last = 0;
    for (int cycle = 0; cycle < 30; cycle++) {
        for (auto &[port, f] : h.step()) {
            EXPECT_EQ(port, 2);
            seen[f.packet]++;
            last = h.now();
        }
    }
    EXPECT_EQ(seen[1], 4);
    EXPECT_EQ(seen[2], 4);
    // Both packets delivered; with one output channel the 8 flits need
    // at least 8 cycles, and interleaving means the second packet did
    // not wait for the first to fully finish.
    (void)last;
}

TEST(VcRouter, PacketsOnDistinctInputsInterleaveOnOutput)
{
    SingleRouter h(vcConfig(2, 8));
    injectPacket(h, 0, 0, 2, 1, 4);
    injectPacket(h, 1, 0, 2, 2, 4);
    // Record the packet sequence on the output; with per-flit switch
    // allocation and matrix fairness, the two packets alternate rather
    // than one monopolizing the port (contrast: wormhole holds it).
    std::vector<sim::PacketId> order;
    for (int cycle = 0; cycle < 30; cycle++)
        for (auto &[port, f] : h.step())
            order.push_back(f.packet);
    ASSERT_EQ(order.size(), 8u);
    bool interleaved = false;
    for (std::size_t i = 0; i + 1 < order.size(); i++)
        if (order[i] != order[i + 1])
            interleaved = true;
    EXPECT_TRUE(interleaved);
    // But both packets must use different output VCs.
}

TEST(VcRouter, OutputVcHeldUntilTail)
{
    SingleRouter h(vcConfig(1, 8));     // One VC: easy to reason.
    injectPacket(h, 0, 0, 1, 1, 3);
    injectPacket(h, 1, 0, 1, 2, 3);
    // Only one output VC exists on port 1: the second packet must wait
    // for the first tail before its VA succeeds -> no interleaving.
    std::vector<sim::PacketId> order;
    for (int cycle = 0; cycle < 30; cycle++)
        for (auto &[port, f] : h.step())
            order.push_back(f.packet);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], order[1]);
    EXPECT_EQ(order[1], order[2]);
    EXPECT_NE(order[2], order[3]);
}

TEST(VcRouter, PerVcCreditAccounting)
{
    SingleRouter h(vcConfig(2, 2));
    // Send a 3-flit packet: only 2 credits on its output VC.
    injectPacket(h, 0, 0, 1, 1, 2);     // Fits FIFO depth 2.
    int departed = 0;
    std::vector<int> out_vcs;
    for (int cycle = 0; cycle < 10; cycle++)
        for (auto &[port, f] : h.step()) {
            departed++;
            out_vcs.push_back(f.vc);
        }
    EXPECT_EQ(departed, 2);
    ASSERT_FALSE(out_vcs.empty());
    int used_vc = out_vcs[0];
    EXPECT_EQ(h.router().credits(1, used_vc), 0);
    EXPECT_EQ(h.router().credits(1, 1 - used_vc), 2);
    // Credit one buffer back on the used VC.
    h.credit(1, used_vc);
    h.step();
    h.step();
    EXPECT_EQ(h.router().credits(1, used_vc), 1);
}

TEST(VcRouter, CreditStallCounted)
{
    SingleRouter h(vcConfig(1, 1));
    // Head first (fits the 1-deep FIFO); it departs and spends the
    // only credit of the output VC.
    h.inject(0, SingleRouter::makeFlit(1, FlitType::Head, 0, 1, 0));
    for (int cycle = 0; cycle < 6; cycle++)
        h.step();
    // Tail arrives next; it must stall on zero credits.
    h.inject(0, SingleRouter::makeFlit(1, FlitType::Tail, 0, 1, 1));
    for (int cycle = 0; cycle < 6; cycle++)
        h.step();
    EXPECT_GT(h.router().statsAt(h.now()).creditStallCycles, 0u);
    // Returning the credit lets the tail go.
    h.credit(1, 0);
    int departed = 0;
    for (int cycle = 0; cycle < 6; cycle++)
        departed += int(h.step().size());
    EXPECT_EQ(departed, 1);
}

TEST(VcRouter, QuiescentAfterDrain)
{
    SingleRouter h(vcConfig(2, 8));
    injectPacket(h, 0, 0, 1, 1, 5);
    for (int cycle = 0; cycle < 20; cycle++)
        h.step();
    EXPECT_TRUE(h.router().quiescent());
    EXPECT_EQ(h.router().statsAt(h.now()).flitsIn, 5u);
    EXPECT_EQ(h.router().statsAt(h.now()).flitsOut, 5u);
}

TEST(VcRouter, SingleCycleVaSaSameCycle)
{
    auto cfg = vcConfig();
    cfg.singleCycle = true;
    SingleRouter h(cfg);
    h.inject(0, SingleRouter::makeFlit(1, FlitType::HeadTail, 0, 1, 0));
    for (int cycle = 0; cycle < 6; cycle++) {
        auto outs = h.step();
        if (!outs.empty()) {
            EXPECT_EQ(cycle, 2);    // Arrive 1; VA+SA at 2.
            return;
        }
    }
    FAIL() << "flit never departed";
}
