/**
 * @file
 * Determinism harness for the partitioned parallel engine: a Network
 * driven by par::ParallelStepper at any worker count must be
 * bit-identical -- delivered-packet traces, latency statistics, router
 * counters, accepted rate -- to the same Network stepped serially.
 * Also covers the sample-space boundary (the Ordered source phase), a
 * deadlock soak under partitioned stepping, and the runSimulation
 * par.workers path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/simulation.hh"
#include "net/network.hh"
#include "par/stepper.hh"

using namespace pdr;

namespace {

net::NetworkConfig
baseConfig(int k = 8)
{
    net::NetworkConfig cfg;
    cfg.k = k;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 5;
    cfg.warmup = 100;
    cfg.samplePackets = 600;
    cfg.seed = 123;
    return cfg;
}

/**
 * Step a serial and a partitioned network in lockstep and require
 * identical observable behavior, cycle for cycle.
 */
void
expectParallelLockstep(const net::NetworkConfig &cfg, int workers,
                       par::Scheme scheme, sim::Cycle cycles)
{
    net::Network serial(cfg);
    net::Network parallel(cfg);
    par::ParConfig pcfg;
    pcfg.workers = workers;
    pcfg.scheme = scheme;
    par::ParallelStepper stepper(parallel, pcfg);
    ASSERT_GE(stepper.workers(), 2) << "partition collapsed to serial";
    EXPECT_GT(stepper.crossChannels(), 0u);
    serial.recordDeliveries(true);
    parallel.recordDeliveries(true);

    for (sim::Cycle c = 0; c < cycles; c++) {
        serial.step();
        stepper.step();
        ASSERT_EQ(serial.deliveredPackets(), parallel.deliveredPackets())
            << "delivery count diverged at cycle " << c;
    }

    const auto st = serial.takeDeliveries(), pt = parallel.takeDeliveries();
    EXPECT_GT(st.size(), 0u) << "test drove no traffic";
    ASSERT_EQ(st.size(), pt.size());
    for (std::size_t i = 0; i < st.size(); i++) {
        ASSERT_EQ(st[i].packet, pt[i].packet) << "delivery " << i;
        ASSERT_EQ(st[i].dest, pt[i].dest) << "delivery " << i;
        ASSERT_EQ(st[i].at, pt[i].at) << "delivery " << i;
        ASSERT_EQ(st[i].latency, pt[i].latency) << "delivery " << i;
    }

    auto sl = serial.latency(), pl = parallel.latency();
    EXPECT_EQ(sl.count(), pl.count());
    EXPECT_DOUBLE_EQ(sl.mean(), pl.mean());
    EXPECT_DOUBLE_EQ(sl.percentile(99.0), pl.percentile(99.0));
    EXPECT_EQ(sl.unmeasuredCount(), pl.unmeasuredCount());

    auto sr = serial.routerTotals(), pr = parallel.routerTotals();
    EXPECT_EQ(sr.flitsIn, pr.flitsIn);
    EXPECT_EQ(sr.flitsOut, pr.flitsOut);
    EXPECT_EQ(sr.headGrants, pr.headGrants);
    EXPECT_EQ(sr.vaGrants, pr.vaGrants);
    EXPECT_EQ(sr.specSaWins, pr.specSaWins);
    EXPECT_EQ(sr.creditStallCycles, pr.creditStallCycles);

    EXPECT_EQ(serial.acceptedFlitRate(), parallel.acceptedFlitRate());
    EXPECT_EQ(serial.controller().tagged(),
              parallel.controller().tagged());
    EXPECT_EQ(serial.controller().received(),
              parallel.controller().received());
}

} // namespace

TEST(ParallelStepTest, TwoWorkersMatchSerialOnTheMesh)
{
    auto cfg = baseConfig();
    cfg.setOfferedFraction(0.3);
    expectParallelLockstep(cfg, 2, par::Scheme::Planes, 3000);
}

TEST(ParallelStepTest, FourWorkersMatchSerialNearSaturation)
{
    auto cfg = baseConfig();
    cfg.setOfferedFraction(0.7);
    expectParallelLockstep(cfg, 4, par::Scheme::Planes, 2500);
}

TEST(ParallelStepTest, WeightedSchemeMatchesSerial)
{
    auto cfg = baseConfig();
    cfg.setOfferedFraction(0.4);
    // 3 weighted workers split the 8x8 mesh mid-plane.
    expectParallelLockstep(cfg, 3, par::Scheme::Weighted, 3000);
}

TEST(ParallelStepTest, TorusWrapLinksCrossPartitions)
{
    auto cfg = baseConfig();
    cfg.topology = "torus";
    cfg.setOfferedFraction(0.3);
    expectParallelLockstep(cfg, 4, par::Scheme::Planes, 2500);
}

TEST(ParallelStepTest, ConcentratedMeshWeighted)
{
    auto cfg = baseConfig(4);
    cfg.topology = "cmesh";
    cfg.router.numPorts = 0;
    cfg.setOfferedFraction(0.3);
    expectParallelLockstep(cfg, 3, par::Scheme::Weighted, 3000);
}

TEST(ParallelStepTest, KAry3CubeDorFourWorkers)
{
    auto cfg = baseConfig(4);
    cfg.topology = "kary3cube";
    cfg.router.numPorts = 0;
    cfg.setOfferedFraction(0.3);
    expectParallelLockstep(cfg, 4, par::Scheme::Planes, 2500);
}

TEST(ParallelStepTest, BurstyArrivalsMatchSerial)
{
    auto cfg = baseConfig();
    cfg.burstOn = 30;
    cfg.burstOff = 70;
    cfg.setOfferedFraction(0.4);
    expectParallelLockstep(cfg, 4, par::Scheme::Planes, 3000);
}

TEST(ParallelStepTest, ObliviousRoutingDrawsStayAligned)
{
    auto cfg = baseConfig();
    cfg.routing = "o1turn";
    cfg.pattern = "transpose";
    cfg.setOfferedFraction(0.4);
    expectParallelLockstep(cfg, 4, par::Scheme::Planes, 2500);
}

TEST(ParallelStepTest, SampleBoundaryIsOrderExact)
{
    // A tiny sample space on a big node set: the quota (50) runs out
    // mid-cycle with 64 eligible sources, so which packets are tagged
    // depends on the serial node order -- the Ordered source phase
    // must reproduce it exactly.
    auto cfg = baseConfig();
    cfg.warmup = 50;
    cfg.samplePackets = 50;
    cfg.setOfferedFraction(0.6);
    expectParallelLockstep(cfg, 4, par::Scheme::Planes, 2000);
}

TEST(ParallelStepTest, RunSimulationMatchesAcrossWorkerCounts)
{
    api::SimConfig cfg;
    cfg.net = baseConfig();
    cfg.net.warmup = 200;
    cfg.net.samplePackets = 400;
    cfg.net.setOfferedFraction(0.35);
    cfg.maxCycles = 50000;

    cfg.parWorkers = 1;
    auto serial = api::runSimulation(cfg);
    for (int workers : {2, 4}) {
        cfg.parWorkers = workers;
        auto par_res = api::runSimulation(cfg);
        EXPECT_DOUBLE_EQ(serial.avgLatency, par_res.avgLatency)
            << workers;
        EXPECT_DOUBLE_EQ(serial.p99Latency, par_res.p99Latency);
        EXPECT_DOUBLE_EQ(serial.acceptedFraction,
                         par_res.acceptedFraction);
        EXPECT_EQ(serial.cycles, par_res.cycles);
        EXPECT_EQ(serial.sampleReceived, par_res.sampleReceived);
        EXPECT_EQ(serial.drained, par_res.drained);
    }
    cfg.parWorkers = 2;
    cfg.parScheme = "weighted";
    auto weighted = api::runSimulation(cfg);
    EXPECT_DOUBLE_EQ(serial.avgLatency, weighted.avgLatency);
    EXPECT_EQ(serial.cycles, weighted.cycles);
}

TEST(ParallelStepTest, StepperDetachRestoresSerialStepping)
{
    // Drive the first half through a stepper, destroy it, finish with
    // Network::step(): the run must match an all-serial twin.
    auto cfg = baseConfig();
    cfg.setOfferedFraction(0.3);
    net::Network serial(cfg);
    net::Network mixed(cfg);
    serial.recordDeliveries(true);
    mixed.recordDeliveries(true);

    {
        par::ParConfig pcfg;
        pcfg.workers = 4;
        par::ParallelStepper stepper(mixed, pcfg);
        stepper.run(1500);
    }
    mixed.run(1500);
    serial.run(3000);

    const auto st = serial.takeDeliveries(), mt = mixed.takeDeliveries();
    ASSERT_EQ(st.size(), mt.size());
    for (std::size_t i = 0; i < st.size(); i++) {
        ASSERT_EQ(st[i].packet, mt[i].packet) << i;
        ASSERT_EQ(st[i].at, mt[i].at) << i;
    }
    EXPECT_EQ(serial.flitsInFlight(), mixed.flitsInFlight());
    EXPECT_EQ(serial.deliveredFlits(), mixed.deliveredFlits());
}

TEST(ParallelStepDeadlockSoak, KAry3CubeAtMaxInjection)
{
    // 50k-cycle forward-progress soak far past saturation, under
    // 4-worker partitioned stepping (the partitioned twin of the
    // serial DeadlockSoak suite in tests/net/test_lockstep.cc).
    net::NetworkConfig cfg;
    cfg.k = 4;
    cfg.topology = "kary3cube";
    cfg.routing = "dor";
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numPorts = 0;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 5;
    cfg.warmup = 1000;
    cfg.samplePackets = 1u << 30;   // Never stop sampling.
    cfg.seed = 7;
    cfg.injectionRate = std::min(1.0, cfg.capacity());

    net::Network net(cfg);
    par::ParConfig pcfg;
    pcfg.workers = 4;
    par::ParallelStepper stepper(net, pcfg);
    ASSERT_EQ(stepper.workers(), 4);

    constexpr sim::Cycle kSoak = 50000;
    constexpr sim::Cycle kWindow = 10000;
    std::uint64_t last = 0;
    for (sim::Cycle w = 0; w < kSoak / kWindow; w++) {
        stepper.run(kWindow);
        ASSERT_GT(net.deliveredPackets(), last)
            << "no packet delivered in cycles [" << w * kWindow
            << ", " << (w + 1) * kWindow << ") -- deadlock?";
        last = net.deliveredPackets();
    }
}
