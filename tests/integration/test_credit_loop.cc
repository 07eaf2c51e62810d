/**
 * @file
 * Credit-loop behaviour (Section 5.2, Figures 16 and 18).
 *
 * Credit latency does not affect zero-load latency but shrinks the
 * effective buffering and hence throughput; raising credit propagation
 * from 1 to 4 cycles cost the paper's specVC(2x4) 18% of throughput.
 */

#include <gtest/gtest.h>

#include "api/simulation.hh"

using namespace pdr;
using router::RouterModel;

namespace {

api::SimConfig
specConfig(sim::Cycle credit_latency, double load)
{
    api::SimConfig cfg;
    cfg.net.router.model = RouterModel::SpecVirtualChannel;
    cfg.net.router.numVcs = 2;
    cfg.net.router.bufDepth = 4;
    cfg.net.creditLatency = credit_latency;
    cfg.net.warmup = 4000;
    cfg.net.samplePackets = 5000;
    cfg.maxCycles = 100000;
    cfg.net.setOfferedFraction(load);
    return cfg;
}

} // namespace

TEST(CreditLoop, PropagationLatencyCutsThroughput)
{
    // Fig 18: 1 -> 4 cycles of credit propagation costs ~18% of
    // saturation throughput for specVC (2 VCs x 4 buffers).
    double s1 = api::findSaturation(specConfig(1, 0), 4.0, 0.02);
    double s4 = api::findSaturation(specConfig(4, 0), 4.0, 0.02);
    EXPECT_LT(s4, s1);
    double drop = (s1 - s4) / s1;
    EXPECT_GT(drop, 0.05);
    EXPECT_LT(drop, 0.35);
}

TEST(CreditLoop, PropagationBarelyMovesZeroLoadLatency)
{
    // Section 6: "credit latency does not directly impact zero-load
    // latency".  With buffers deep enough to cover the longer loop the
    // latency moves only by the (small) residual stall of a 5-flit
    // packet on 4 buffers.
    auto r1 = api::runSimulation(specConfig(1, 0.02));
    auto r4 = api::runSimulation(specConfig(4, 0.02));
    ASSERT_TRUE(r1.drained && r4.drained);
    EXPECT_LT(r4.avgLatency - r1.avgLatency, 8.0);
    EXPECT_GE(r4.avgLatency, r1.avgLatency);
}

TEST(CreditLoop, DeepBuffersHideCreditLatency)
{
    auto mk = [](sim::Cycle cl, int buf) {
        auto cfg = specConfig(cl, 0.02);
        cfg.net.router.bufDepth = buf;
        return api::runSimulation(cfg);
    };
    // With 16 buffers per VC even a 4-cycle credit path is covered.
    auto r1 = mk(1, 16);
    auto r4 = mk(4, 16);
    ASSERT_TRUE(r1.drained && r4.drained);
    EXPECT_NEAR(r1.avgLatency, r4.avgLatency, 0.5);
}

TEST(CreditLoop, CreditConservation)
{
    // No credit is lost or duplicated anywhere: with the auditor on,
    // AUD-CREDIT checks that credits held upstream and on the wire
    // plus flits buffered downstream and on the wire equal bufDepth
    // on every link VC, every cycle of the sample.
    auto cfg = specConfig(1, 0.3);
    cfg.net.samplePackets = 2000;
    cfg.net.audit = true;
    net::Network network(cfg.net);
    ASSERT_TRUE(network.auditEnabled());
    EXPECT_NO_THROW({
        while (!network.controller().done() && network.now() < 100000)
            network.step();
    });
    ASSERT_TRUE(network.controller().done());
    EXPECT_NO_THROW(network.auditTeardown());
    ASSERT_NE(network.auditor(), nullptr);
    EXPECT_GT(network.auditor()->checksRun(), 0u);
}
