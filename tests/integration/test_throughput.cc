/**
 * @file
 * Saturation-throughput integration tests.
 *
 * These assert the paper's *relative* claims (Section 5.1 / 5.2), which
 * are robust to small timing differences between our C++ models and the
 * authors' Verilog:
 *   - VC flow control beats wormhole throughput substantially;
 *   - speculation adds throughput when buffers are scarce (2 VCs x 4),
 *     and stops mattering once buffering covers the credit loop (4x4);
 *   - the single-cycle (unit-latency) model overestimates throughput of
 *     a realistically pipelined router;
 *   - deeper buffers raise saturation for every flow control.
 * Absolute knees come from `pdr sweep --file experiments/fig13.exp`
 * (and fig14, fig15); see docs/EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include "api/simulation.hh"

using namespace pdr;
using router::RouterModel;

namespace {

double
saturation(RouterModel m, int vcs, int buf, bool single_cycle = false,
           sim::Cycle credit_latency = 1)
{
    api::SimConfig cfg;
    cfg.net.router.model = m;
    cfg.net.router.singleCycle = single_cycle;
    cfg.net.router.numVcs = vcs;
    cfg.net.router.bufDepth = buf;
    cfg.net.creditLatency = credit_latency;
    cfg.net.warmup = 4000;
    cfg.net.samplePackets = 5000;
    cfg.maxCycles = 100000;
    return api::findSaturation(cfg, 4.0, 0.02);
}

} // namespace

TEST(Throughput, VcBeatsWormhole8Buf)
{
    // Fig 13: WH(8) 40%, VC(2x4) 50% -- a substantial VC gain with the
    // same total buffering, contrary to Chien's conclusion.
    double wh = saturation(RouterModel::Wormhole, 1, 8);
    double vc = saturation(RouterModel::VirtualChannel, 2, 4);
    EXPECT_GT(vc, wh + 0.05);
}

TEST(Throughput, SpeculationHelpsWithScarceBuffers)
{
    // Fig 13: specVC(2x4) 55% vs VC(2x4) 50%.
    double vc = saturation(RouterModel::VirtualChannel, 2, 4);
    double sp = saturation(RouterModel::SpecVirtualChannel, 2, 4);
    EXPECT_GT(sp, vc + 0.01);
}

TEST(Throughput, SpeculationIrrelevantWithDeepBuffers)
{
    // Fig 15: with 4 VCs x 4 buffers the credit loop is covered and
    // both virtual-channel routers saturate together (70% in paper).
    double vc = saturation(RouterModel::VirtualChannel, 4, 4);
    double sp = saturation(RouterModel::SpecVirtualChannel, 4, 4);
    EXPECT_NEAR(sp, vc, 0.04);
}

TEST(Throughput, SpecBeatsWormholeSubstantially16Buf)
{
    // Fig 14 headline: specVC(2x8) 70% vs WH(16) 50% -- "up to 40%".
    double wh = saturation(RouterModel::Wormhole, 1, 16);
    double sp = saturation(RouterModel::SpecVirtualChannel, 2, 8);
    EXPECT_GT(sp, wh + 0.05);
}

TEST(Throughput, UnitLatencyModelOverestimatesThroughput)
{
    // Fig 17: single-cycle VC saturates at 65% vs 50% pipelined.
    double pipe = saturation(RouterModel::VirtualChannel, 2, 4);
    double unit = saturation(RouterModel::VirtualChannel, 2, 4, true);
    EXPECT_GT(unit, pipe + 0.03);
}

TEST(Throughput, DeeperBuffersRaiseSaturation)
{
    EXPECT_GT(saturation(RouterModel::Wormhole, 1, 16),
              saturation(RouterModel::Wormhole, 1, 8) + 0.02);
    EXPECT_GT(saturation(RouterModel::SpecVirtualChannel, 2, 8),
              saturation(RouterModel::SpecVirtualChannel, 2, 4) + 0.02);
}

TEST(Throughput, AcceptedTracksOfferedBelowSaturation)
{
    api::SimConfig cfg;
    cfg.net.router.model = RouterModel::SpecVirtualChannel;
    cfg.net.router.numVcs = 2;
    cfg.net.router.bufDepth = 4;
    cfg.net.warmup = 4000;
    cfg.net.samplePackets = 5000;
    cfg.maxCycles = 100000;
    for (double f : {0.1, 0.2, 0.3, 0.4}) {
        cfg.net.setOfferedFraction(f);
        auto r = api::runSimulation(cfg);
        ASSERT_TRUE(r.drained);
        EXPECT_NEAR(r.acceptedFraction, f, 0.03) << "at load " << f;
    }
}

TEST(Throughput, SpeculationNeverHurts)
{
    // Conservative speculation (Section 6): prioritized non-spec
    // requests mean the spec router is never worse than non-spec.
    for (double f : {0.3, 0.5}) {
        api::SimConfig cfg;
        cfg.net.router.numVcs = 2;
        cfg.net.router.bufDepth = 4;
        cfg.net.warmup = 4000;
        cfg.net.samplePackets = 5000;
        cfg.maxCycles = 100000;
        cfg.net.setOfferedFraction(f);

        cfg.net.router.model = RouterModel::VirtualChannel;
        auto vc = api::runSimulation(cfg);
        cfg.net.router.model = RouterModel::SpecVirtualChannel;
        auto sp = api::runSimulation(cfg);
        ASSERT_TRUE(vc.drained && sp.drained);
        EXPECT_LE(sp.avgLatency, vc.avgLatency + 1.0) << "at load " << f;
    }
}
