/**
 * @file
 * Saturation search: the sample's latency-sum lower bound that lets a
 * failing findSaturation() probe stop early, and the exactness of that
 * early exit -- the estimate equals a search that runs every probe to
 * completion, at any sweep-thread and network-worker count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "api/simulation.hh"
#include "net/network.hh"
#include "par/stepper.hh"

using namespace pdr;

namespace {

api::SimConfig
tinyConfig()
{
    api::SimConfig cfg;
    cfg.net.k = 4;
    cfg.net.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.net.router.numVcs = 2;
    cfg.net.router.bufDepth = 4;
    cfg.net.warmup = 300;
    cfg.net.samplePackets = 400;
    cfg.maxCycles = 20000;
    return cfg;
}

/** (clock, bound) before every sample-phase step, then at the end. */
struct BoundTrace
{
    std::vector<std::pair<sim::Cycle, std::uint64_t>> points;
    double finalSum = 0.0;
    bool drained = false;
};

BoundTrace
traceBound(const net::NetworkConfig &cfg, int workers, sim::Cycle cap)
{
    net::Network net(cfg);
    par::ParConfig pcfg;
    pcfg.workers = workers;
    par::ParallelStepper stepper(net, pcfg);
    auto &ctrl = net.controller();

    BoundTrace t;
    stepper.stepTo(cfg.warmup);
    while (!ctrl.done() && net.now() < cap) {
        t.points.push_back({net.now(), ctrl.latencySumLowerBound(net.now())});
        stepper.skipIdle(cap);
        if (net.now() >= cap)
            break;
        stepper.step();
    }
    t.points.push_back({net.now(), ctrl.latencySumLowerBound(net.now())});
    t.finalSum = net.latency().sum();
    t.drained = ctrl.done();
    return t;
}

/** findSaturation()'s bracketing search with every probe run to
 *  completion through the public runSimulation(). */
double
fullProbeSearch(api::SimConfig cfg, double latency_limit, double tolerance,
                int *latency_failures)
{
    cfg.net.setOfferedFraction(0.02);
    auto zr = api::runSimulation(cfg);
    const double limit = latency_limit * zr.avgLatency;
    if (!(zr.drained && zr.avgLatency <= limit))
        return 0.0;
    auto ok = [&](double f) {
        auto c = cfg;
        c.net.setOfferedFraction(f);
        auto r = api::runSimulation(c);
        if (r.drained && r.avgLatency > limit)
            ++*latency_failures;
        return r.drained && r.avgLatency <= limit;
    };

    constexpr int fanout = 7;
    double lo = 0.02, hi = 1.0;
    while (hi - lo > tolerance) {
        double new_lo = lo, new_hi = hi;
        for (int i = 1; i <= fanout; i++) {
            double f = lo + (hi - lo) * i / (fanout + 1);
            if (!ok(f)) {
                new_hi = f;
                break;
            }
            new_lo = f;
        }
        lo = new_lo;
        hi = new_hi;
    }
    return lo;
}

} // namespace

TEST(Saturation, LatencyBoundIsMonotoneAndExactAtDrain)
{
    auto cfg = tinyConfig();
    cfg.net.setOfferedFraction(0.9);    // Saturated, but drains.
    const sim::Cycle cap = 200000;

    BoundTrace ref;
    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("par.workers = " + std::to_string(workers));
        auto t = traceBound(cfg.net, workers, cap);
        ASSERT_TRUE(t.drained);
        ASSERT_GE(t.points.size(), 2u);
        for (std::size_t i = 0; i < t.points.size(); i++) {
            EXPECT_LE(double(t.points[i].second), t.finalSum)
                << "cycle " << t.points[i].first;
            if (i > 0) {
                EXPECT_GE(t.points[i].second, t.points[i - 1].second)
                    << "cycle " << t.points[i].first;
            }
        }
        EXPECT_EQ(double(t.points.back().second), t.finalSum);

        if (workers == 1) {
            ref = t;
            // The bound reaches half the final mean well before the
            // drain, so a probe that fails on latency can stop early.
            const double n = double(cfg.net.samplePackets);
            auto drain = t.points.back().first;
            for (const auto &[at, bound] : t.points) {
                if (double(bound) / n > 0.5 * t.finalSum / n) {
                    EXPECT_LT(at, drain);
                    break;
                }
            }
        } else {
            EXPECT_EQ(t.points, ref.points);
            EXPECT_EQ(t.finalSum, ref.finalSum);
        }
    }
}

TEST(Saturation, EarlyExitEstimateEqualsFullProbeSearch)
{
    const auto cfg = tinyConfig();
    const double limit = 4.0, tol = 0.02;

    int latency_failures = 0;
    double ref = fullProbeSearch(cfg, limit, tol, &latency_failures);
    ASSERT_GT(ref, 0.2);
    // Some probe drained and failed on latency alone, which is where
    // the early exit has to reproduce the full run's verdict.
    EXPECT_GT(latency_failures, 0);

    const char *env = std::getenv("PDR_THREADS");
    const std::string saved = env ? env : "";
    for (const char *threads : {"1", "4"}) {
        setenv("PDR_THREADS", threads, 1);
        for (int workers : {1, 4}) {
            SCOPED_TRACE(std::string("PDR_THREADS = ") + threads +
                         ", par.workers = " + std::to_string(workers));
            auto c = cfg;
            c.parWorkers = workers;
            EXPECT_EQ(api::findSaturation(c, limit, tol), ref);
        }
    }
    if (env)
        setenv("PDR_THREADS", saved.c_str(), 1);
    else
        unsetenv("PDR_THREADS");
}
