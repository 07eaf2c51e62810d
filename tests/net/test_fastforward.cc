/**
 * @file
 * Clock fast-forward equivalence.
 *
 * Network::stepTo()/run() may jump now() across provably idle regions
 * (Network::skipIdle); these tests pin the contract that a jump is
 * indistinguishable from stepping the same cycles one by one -- same
 * deliveries, same latency statistics, same router counters, same
 * final clock -- serially and through a ParallelStepper, plus a
 * saturated k=16 lockstep where credit-stall sleeping dominates the
 * schedule.  An epoch observer that caps the jumps (Network::drive's
 * resume rule) must not change which cycles run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/network.hh"
#include "par/stepper.hh"

using namespace pdr;

namespace {

net::NetworkConfig
baseConfig(int k, double offered)
{
    net::NetworkConfig cfg;
    cfg.k = k;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 5;
    cfg.warmup = 100;
    cfg.samplePackets = 400;
    cfg.seed = 12345;
    cfg.setOfferedFraction(offered);
    return cfg;
}

/** End-state equality: clock, deliveries (both networks recording
 *  since cycle 0), latency, router counters. */
void
expectSameEndState(net::Network &a, net::Network &b)
{
    EXPECT_EQ(a.now(), b.now());

    const auto at = a.takeDeliveries(), bt = b.takeDeliveries();
    ASSERT_EQ(at.size(), bt.size());
    for (std::size_t i = 0; i < at.size(); i++) {
        EXPECT_EQ(at[i].packet, bt[i].packet) << "delivery " << i;
        EXPECT_EQ(at[i].at, bt[i].at) << "delivery " << i;
        EXPECT_EQ(at[i].latency, bt[i].latency) << "delivery " << i;
    }

    auto al = a.latency(), bl = b.latency();
    EXPECT_EQ(al.count(), bl.count());
    EXPECT_DOUBLE_EQ(al.mean(), bl.mean());

    auto ar = a.routerTotals(), br = b.routerTotals();
    EXPECT_EQ(ar.flitsIn, br.flitsIn);
    EXPECT_EQ(ar.flitsOut, br.flitsOut);
    EXPECT_EQ(ar.headGrants, br.headGrants);
    EXPECT_EQ(ar.vaGrants, br.vaGrants);
    EXPECT_EQ(ar.specSaAttempts, br.specSaAttempts);
    EXPECT_EQ(ar.creditStallCycles, br.creditStallCycles);

    EXPECT_EQ(a.quiescent(), b.quiescent());
}

/** An epoch every `k` cycles; records the clock at each one polled. */
class EveryK : public net::EpochObserver
{
  public:
    EveryK(const net::Network &net, sim::Cycle k)
        : net_(net), k_(k), next_(net.now() + k)
    {
    }

    sim::Cycle
    cap(sim::Cycle limit) const override
    {
        return std::min(limit, next_);
    }

    void
    poll() override
    {
        for (; next_ <= net_.now(); next_ += k_)
            seen.push_back(net_.now());
    }

    std::vector<sim::Cycle> seen;

  private:
    const net::Network &net_;
    sim::Cycle k_;
    sim::Cycle next_;
};

} // namespace

TEST(FastForward, SkipIdleJumpsQuiescentRegion)
{
    // A network with nothing scheduled fast-forwards to the limit in
    // one call instead of stepping through the idle region.
    auto cfg = baseConfig(4, 0.3);
    cfg.injectionRate = 0.0;
    net::Network net(cfg);
    net.step();     // Cycle 0: every component reports its real wake.
    EXPECT_EQ(net.now(), 1u);
    EXPECT_EQ(net.skipIdle(100000), 100000u);
    EXPECT_EQ(net.now(), 100000u);
    EXPECT_TRUE(net.quiescent());
}

TEST(FastForward, SkipIdleIsNoOpUnderForceTickAll)
{
    auto cfg = baseConfig(4, 0.3);
    cfg.injectionRate = 0.0;
    net::Network net(cfg);
    net.forceTickAll(true);
    net.step();
    EXPECT_EQ(net.skipIdle(100000), 1u);
    EXPECT_EQ(net.now(), 1u);
}

TEST(FastForward, RunMatchesSteppingThroughIdle)
{
    // run() == N x step() even when run() jumps the whole span.
    auto cfg = baseConfig(4, 0.3);
    cfg.injectionRate = 0.0;
    net::Network jump(cfg), walk(cfg);
    jump.run(5000);
    for (int c = 0; c < 5000; c++)
        walk.step();
    EXPECT_EQ(jump.now(), walk.now());
    EXPECT_TRUE(jump.quiescent());
    EXPECT_TRUE(walk.quiescent());
    EXPECT_EQ(jump.flitsInFlight(), walk.flitsInFlight());
    EXPECT_EQ(jump.deliveredFlits(), walk.deliveredFlits());
}

TEST(FastForward, StepToMatchesStepLoopUnderTraffic)
{
    // Live traffic: exhausted source credits and credit-stalled
    // routers open small idle windows; stepTo() taking them must land
    // on the exact same end state as the cycle-by-cycle walk.
    auto cfg = baseConfig(4, 0.4);
    net::Network jump(cfg), walk(cfg);
    jump.recordDeliveries(true);
    walk.recordDeliveries(true);

    const sim::Cycle horizon = 5000;
    jump.stepTo(horizon);
    for (sim::Cycle c = 0; c < horizon; c++)
        walk.step();
    expectSameEndState(jump, walk);
}

TEST(FastForward, SaturatedK16Lockstep)
{
    // k=16 mesh far past saturation: almost every router is blocked on
    // credits, so the skipping schedule sleeps through stall spans the
    // naive schedule grinds out cycle by cycle.  Behavior and the
    // interval-accounted stall counters must still match exactly.
    net::NetworkConfig cfg;
    cfg.k = 16;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 5;
    cfg.warmup = 100;
    cfg.samplePackets = 1u << 30;   // Never stop sampling.
    cfg.seed = 31;
    cfg.setOfferedFraction(0.8);

    net::Network fast(cfg);
    net::Network naive(cfg);
    naive.forceTickAll(true);
    fast.recordDeliveries(true);
    naive.recordDeliveries(true);

    for (sim::Cycle c = 0; c < 1200; c++) {
        fast.step();
        naive.step();
        ASSERT_EQ(fast.deliveredPackets(), naive.deliveredPackets())
            << "delivery count diverged at cycle " << c;
    }
    EXPECT_GT(fast.deliveredPackets(), 0u);
    EXPECT_GT(fast.routerTotals().creditStallCycles, 0u)
        << "test drove no stalls";
    expectSameEndState(fast, naive);
}

TEST(FastForward, ParallelStepperJumpsMatchSerial)
{
    // Worker-0 jumps between cycle barriers must reproduce the serial
    // jump schedule for any worker count.
    auto cfg = baseConfig(4, 0.2);
    net::Network serial(cfg), gang(cfg);
    serial.recordDeliveries(true);
    gang.recordDeliveries(true);

    const sim::Cycle horizon = 3000;
    serial.stepTo(horizon);
    {
        par::ParConfig pc;
        pc.workers = 2;
        par::ParallelStepper stepper(gang, pc);
        stepper.stepTo(horizon);
    }
    expectSameEndState(serial, gang);
}

TEST(FastForward, CappedJumpsResumeInsteadOfStepping)
{
    // An observer caps every jump at its next epoch.  A jump that stops
    // on an epoch with no component due must resume, not step: the
    // observed run steps (and audits) exactly the cycles of the run
    // without an observer.  The quiescent case is the one that jumps;
    // under traffic the sources are due every cycle.
    struct Case
    {
        const char *name;
        double offered;
        sim::Cycle horizon;
    };
    const Case cases[] = {{"quiescent", 0.0, 20000},
                          {"traffic", 0.3, 2000}};
    for (const Case &tc : cases) {
        for (sim::Cycle k : {1, 7, 997}) {
            for (int workers : {1, 2, 4}) {
                SCOPED_TRACE(std::string(tc.name) + ", K = " +
                             std::to_string(k) + ", workers = " +
                             std::to_string(workers));
                auto cfg = baseConfig(4, tc.offered);
                cfg.audit = true;
                net::Network plain(cfg), observed(cfg);
                plain.recordDeliveries(true);
                observed.recordDeliveries(true);
                EveryK obs(observed, k);
                {
                    par::ParConfig pc;
                    pc.workers = workers;
                    par::ParallelStepper a(plain, pc), b(observed, pc);
                    a.stepTo(tc.horizon);
                    b.stepTo(tc.horizon, &obs);
                }

                // Every epoch polled once, on its boundary.
                ASSERT_EQ(obs.seen.size(), tc.horizon / k);
                for (std::size_t i = 0; i < obs.seen.size(); i++)
                    ASSERT_EQ(obs.seen[i], (i + 1) * k) << "epoch " << i;

                expectSameEndState(plain, observed);
                EXPECT_EQ(plain.auditor()->checksRun(),
                          observed.auditor()->checksRun());
            }
        }
    }
}
