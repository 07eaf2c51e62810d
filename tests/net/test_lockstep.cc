/**
 * @file
 * Cycle-equivalence harness for activity-driven ticking.
 *
 * Network::step() skips components whose wake time has not come; the
 * claim is that skipping is a pure scheduling optimization with zero
 * effect on simulated behavior.  Proof by lockstep: step a normal
 * (skipping) network and a forceTickAll network cycle by cycle from
 * identical configs and require identical delivered-packet traces
 * (packet id, destination, ejection cycle, latency, in ejection
 * order), identical latency statistics, and identical router counters
 * -- across router models, topologies, patterns and loads.  The
 * long-credit-path cases also step the skipping network through a
 * partitioned stepper and run it audited.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/network.hh"
#include "par/stepper.hh"

using namespace pdr;

namespace {

net::NetworkConfig
baseConfig(router::RouterModel model, int vcs, int buf)
{
    net::NetworkConfig cfg;
    cfg.k = 4;
    cfg.router.model = model;
    cfg.router.numVcs = vcs;
    cfg.router.bufDepth = buf;
    cfg.packetLength = 5;
    cfg.warmup = 100;
    cfg.samplePackets = 400;
    cfg.seed = 99;
    return cfg;
}

/**
 * Step both networks `cycles` cycles, comparing delivery counts every
 * cycle and the delivered packets at the end.  The skipping network
 * steps through a ParallelStepper of `workers` workers (1 = plain
 * Network::step()).
 */
void
expectLockstep(const net::NetworkConfig &cfg, sim::Cycle cycles,
               int workers = 1)
{
    net::Network fast(cfg);
    net::Network naive(cfg);
    naive.forceTickAll(true);
    fast.recordDeliveries(true);
    naive.recordDeliveries(true);

    {
        par::ParConfig pc;
        pc.workers = workers;
        par::ParallelStepper stepper(fast, pc);
        ASSERT_EQ(stepper.workers(), workers);
        for (sim::Cycle c = 0; c < cycles; c++) {
            stepper.step();
            naive.step();
            ASSERT_EQ(fast.deliveredPackets(), naive.deliveredPackets())
                << "delivery count diverged at cycle " << c;
        }
    }

    const auto ft = fast.takeDeliveries(), nt = naive.takeDeliveries();
    ASSERT_EQ(ft.size(), nt.size());
    for (std::size_t i = 0; i < ft.size(); i++) {
        EXPECT_EQ(ft[i].packet, nt[i].packet) << "delivery " << i;
        EXPECT_EQ(ft[i].dest, nt[i].dest) << "delivery " << i;
        EXPECT_EQ(ft[i].at, nt[i].at) << "delivery " << i;
        EXPECT_EQ(ft[i].latency, nt[i].latency) << "delivery " << i;
    }
    EXPECT_GT(ft.size(), 0u) << "test drove no traffic";

    auto fl = fast.latency(), nl = naive.latency();
    EXPECT_EQ(fl.count(), nl.count());
    EXPECT_DOUBLE_EQ(fl.mean(), nl.mean());
    EXPECT_DOUBLE_EQ(fl.percentile(99.0), nl.percentile(99.0));
    EXPECT_EQ(fl.unmeasuredCount(), nl.unmeasuredCount());

    auto fr = fast.routerTotals(), nr = naive.routerTotals();
    EXPECT_EQ(fr.flitsIn, nr.flitsIn);
    EXPECT_EQ(fr.flitsOut, nr.flitsOut);
    EXPECT_EQ(fr.headGrants, nr.headGrants);
    EXPECT_EQ(fr.vaGrants, nr.vaGrants);
    EXPECT_EQ(fr.specSaAttempts, nr.specSaAttempts);
    EXPECT_EQ(fr.specSaWins, nr.specSaWins);
    EXPECT_EQ(fr.specSaUseful, nr.specSaUseful);
    EXPECT_EQ(fr.creditStallCycles, nr.creditStallCycles);

    EXPECT_EQ(fast.acceptedFlitRate(), naive.acceptedFlitRate());
    EXPECT_EQ(fast.quiescent(), naive.quiescent());
}

} // namespace

TEST(LockstepTest, SpecVcLowLoad)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.setOfferedFraction(0.1);
    expectLockstep(cfg, 6000);
}

TEST(LockstepTest, SpecVcNearSaturation)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.setOfferedFraction(0.7);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, VirtualChannelMidLoad)
{
    auto cfg = baseConfig(router::RouterModel::VirtualChannel, 2, 4);
    cfg.setOfferedFraction(0.4);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, WormholeLowLoad)
{
    auto cfg = baseConfig(router::RouterModel::Wormhole, 1, 8);
    cfg.setOfferedFraction(0.15);
    expectLockstep(cfg, 6000);
}

TEST(LockstepTest, TorusDatelineRouting)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.topology = "torus";
    cfg.setOfferedFraction(0.3);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, AdaptiveRoutingTranspose)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.routing = "westfirst";
    cfg.pattern = "transpose";
    cfg.setOfferedFraction(0.3);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, SlowCreditsFig18Shape)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.creditLatency = 4;
    cfg.setOfferedFraction(0.5);
    expectLockstep(cfg, 4000);
}

namespace {

/**
 * A credit path of `latency` cycles: a credit channel holds more items
 * than a channel ring's first capacity.
 */
net::NetworkConfig
creditPipelineConfig(sim::Cycle latency)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.creditLatency = latency;
    cfg.setOfferedFraction(0.5);
    return cfg;
}

} // namespace

TEST(LockstepTest, CreditPipelineSkippingMatchesTickAll)
{
    for (sim::Cycle latency : {5, 7}) {
        for (int workers : {1, 4}) {
            SCOPED_TRACE("net.credit_latency = " +
                         std::to_string(latency) +
                         ", par.workers = " + std::to_string(workers));
            expectLockstep(creditPipelineConfig(latency), 3000, workers);
        }
    }
}

TEST(LockstepTest, CreditPipelineAuditedRuns)
{
    // The auditor counts credits on the wire into AUD-CREDIT and
    // checks the arrival masks under AUD-WAKE every cycle; an audited
    // run must pass and deliver exactly what an unaudited one does.
    for (sim::Cycle latency : {5, 7}) {
        auto cfg = creditPipelineConfig(latency);
        cfg.audit = false;
        net::Network plain(cfg);
        plain.recordDeliveries(true);
        plain.run(3000);
        const auto pt = plain.takeDeliveries();
        ASSERT_GT(pt.size(), 0u);
        cfg.audit = true;
        for (int workers : {1, 4}) {
            SCOPED_TRACE("net.credit_latency = " +
                         std::to_string(latency) +
                         ", par.workers = " + std::to_string(workers));
            net::Network audited(cfg);
            audited.recordDeliveries(true);
            {
                par::ParConfig pc;
                pc.workers = workers;
                par::ParallelStepper stepper(audited, pc);
                ASSERT_EQ(stepper.workers(), workers);
                EXPECT_NO_THROW(stepper.run(3000));
            }
            EXPECT_NO_THROW(audited.auditTeardown());
            EXPECT_GT(audited.auditor()->checksRun(), 0u);
            const auto at = audited.takeDeliveries();
            ASSERT_EQ(at.size(), pt.size());
            for (std::size_t i = 0; i < at.size(); i++) {
                EXPECT_EQ(at[i].packet, pt[i].packet) << "delivery " << i;
                EXPECT_EQ(at[i].at, pt[i].at) << "delivery " << i;
            }
        }
    }
}

TEST(LockstepTest, BurstyMmppArrivals)
{
    // The MMPP state machine advances the RNG every cycle, so the
    // activity-driven schedule must tick bursty sources even through
    // their silent OFF states.
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.burstOn = 25;
    cfg.burstOff = 75;
    cfg.setOfferedFraction(0.3);
    expectLockstep(cfg, 5000);
}

TEST(LockstepTest, SingleFlitPackets)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.packetLength = 1;
    cfg.setOfferedFraction(0.2);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, KAry3CubeDor)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.k = 3;
    cfg.topology = "kary3cube";
    cfg.router.numPorts = 0;
    cfg.setOfferedFraction(0.3);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, ConcentratedMesh)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.topology = "cmesh";
    cfg.router.numPorts = 0;
    cfg.setOfferedFraction(0.3);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, O1TurnTranspose)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.routing = "o1turn";
    cfg.pattern = "transpose";
    cfg.setOfferedFraction(0.4);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, ValiantUniform)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.routing = "val";
    cfg.setOfferedFraction(0.25);
    expectLockstep(cfg, 4000);
}

TEST(LockstepTest, O1TurnOnCubeWithDatelines)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 4, 2);
    cfg.k = 3;
    cfg.topology = "kary3cube";
    cfg.routing = "o1turn";
    cfg.router.numPorts = 0;
    cfg.setOfferedFraction(0.3);
    expectLockstep(cfg, 3000);
}

TEST(LockstepTest, ValiantOnConcentratedMesh)
{
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.topology = "cmesh2";
    cfg.routing = "val";
    cfg.router.numPorts = 0;
    cfg.setOfferedFraction(0.25);
    expectLockstep(cfg, 4000);
}

namespace {

/**
 * Deadlock-freedom soak: drive a (topology, routing) pair at its full
 * uniform capacity -- far past saturation -- and require forward
 * progress in every window.  A routing with a broken VC-class scheme
 * wedges within a few thousand cycles at this load.
 */
void
expectForwardProgressAtSaturation(const std::string &topology,
                                  const std::string &routing, int k,
                                  int vcs)
{
    net::NetworkConfig cfg;
    cfg.k = k;
    cfg.topology = topology;
    cfg.routing = routing;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numPorts = 0;
    cfg.router.numVcs = vcs;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 5;
    cfg.warmup = 1000;
    cfg.samplePackets = 1u << 30;   // Never stop sampling.
    cfg.seed = 7;
    // The heaviest load a source can physically offer: one flit per
    // node per cycle, capped by the topology's capacity bound.
    cfg.injectionRate = std::min(1.0, cfg.capacity());

    net::Network net(cfg);

    constexpr sim::Cycle kSoak = 50000;
    constexpr sim::Cycle kWindow = 10000;
    std::uint64_t last = 0;
    for (sim::Cycle w = 0; w < kSoak / kWindow; w++) {
        net.run(kWindow);
        ASSERT_GT(net.deliveredPackets(), last)
            << topology << "+" << routing << ": no packet delivered in "
            << "cycles [" << w * kWindow << ", " << (w + 1) * kWindow
            << ") -- deadlock?";
        last = net.deliveredPackets();
    }
}

} // namespace

TEST(DeadlockSoak, KAry3CubeDor)
{
    expectForwardProgressAtSaturation("kary3cube", "dor", 4, 2);
}

TEST(DeadlockSoak, KAry3CubeO1Turn)
{
    expectForwardProgressAtSaturation("kary3cube", "o1turn", 4, 4);
}

TEST(DeadlockSoak, KAry3CubeValiant)
{
    expectForwardProgressAtSaturation("kary3cube", "val", 4, 4);
}

TEST(DeadlockSoak, CmeshDor)
{
    expectForwardProgressAtSaturation("cmesh", "dor", 2, 2);
}

TEST(DeadlockSoak, CmeshO1Turn)
{
    expectForwardProgressAtSaturation("cmesh", "o1turn", 2, 2);
}

TEST(DeadlockSoak, CmeshValiant)
{
    expectForwardProgressAtSaturation("cmesh2", "val", 4, 2);
}

TEST(LockstepTest, ZeroRateNetworkStaysQuiet)
{
    // Degenerate corner: nothing ever injected; both schedules must
    // agree that nothing happens (and the skipping one does no work).
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.injectionRate = 0.0;
    net::Network fast(cfg);
    net::Network naive(cfg);
    naive.forceTickAll(true);
    for (int c = 0; c < 1000; c++) {
        fast.step();
        naive.step();
    }
    EXPECT_TRUE(fast.quiescent());
    EXPECT_TRUE(naive.quiescent());
    EXPECT_EQ(fast.latency().count(), 0u);
    EXPECT_EQ(fast.flitsInFlight(), 0u);
    EXPECT_EQ(fast.deliveredFlits(), 0u);
    EXPECT_EQ(naive.flitsInFlight(), 0u);
    EXPECT_EQ(naive.deliveredFlits(), 0u);
}

TEST(LockstepTest, ForceTickAllCanBeToggledOff)
{
    // Turning the naive schedule off mid-run re-arms the wake table;
    // behavior must stay identical to an always-skipping twin.
    auto cfg = baseConfig(router::RouterModel::SpecVirtualChannel, 2, 4);
    cfg.setOfferedFraction(0.3);
    net::Network always(cfg);
    net::Network toggled(cfg);
    toggled.forceTickAll(true);
    always.recordDeliveries(true);
    toggled.recordDeliveries(true);

    for (int c = 0; c < 1000; c++) {
        always.step();
        toggled.step();
    }
    toggled.forceTickAll(false);
    for (int c = 0; c < 2000; c++) {
        always.step();
        toggled.step();
    }
    const auto at = always.takeDeliveries(), tt = toggled.takeDeliveries();
    ASSERT_EQ(at.size(), tt.size());
    for (std::size_t i = 0; i < at.size(); i++) {
        EXPECT_EQ(at[i].packet, tt[i].packet);
        EXPECT_EQ(at[i].at, tt[i].at);
    }
}
