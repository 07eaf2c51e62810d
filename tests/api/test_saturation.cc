/**
 * @file
 * Saturation search: the sample's latency-sum lower bound that lets a
 * failing findSaturation() probe stop early, and the exactness of that
 * early exit, and of skipping the candidates above a round's first
 * failure -- the estimate equals a search that runs every probe it
 * reads to completion, at any sweep-thread and network-worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
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
    auto record = [&] {
        t.points.push_back({net.now(), ctrl.latencySumLowerBound(net.now())});
    };
    stepper.stepTo(cfg.warmup);
    // The sample phase's loop, with the bound read where simulate()
    // tests its early exit.
    net.drive(cap, [&] { stepper.step(); },
              [&] {
                  if (ctrl.done())
                      return true;
                  record();
                  return false;
              },
              nullptr);
    record();
    t.finalSum = net.latency().sum();
    t.drained = ctrl.done();
    return t;
}

/** A full-probe search's estimate and what its rounds exercised. */
struct SearchTrace
{
    double estimate = 0.0;
    int latencyFailures = 0;    //!< Drained probes failed on latency.
    int lowestFailed = 0;       //!< Rounds whose first candidate failed.
    int noneFailed = 0;         //!< Rounds in which every candidate passed.
};

/** findSaturation()'s bracketing search, reading each round's grid up
 *  to its first failure, with every probe run to completion through
 *  the public runSimulation(). */
SearchTrace
fullProbeSearch(api::SimConfig cfg, double latency_limit, double tolerance)
{
    SearchTrace t;
    cfg.net.setOfferedFraction(0.02);
    auto zr = api::runSimulation(cfg);
    const double limit = latency_limit * zr.avgLatency;
    if (!(zr.drained && zr.avgLatency <= limit))
        return t;
    auto ok = [&](double f) {
        auto c = cfg;
        c.net.setOfferedFraction(f);
        auto r = api::runSimulation(c);
        if (r.drained && r.avgLatency > limit)
            t.latencyFailures++;
        return r.drained && r.avgLatency <= limit;
    };

    constexpr int fanout = 7;
    double lo = 0.02, hi = std::min(1.0, 1.0 / cfg.net.capacity());
    while (hi - lo > tolerance) {
        double new_lo = lo, new_hi = hi;
        int first_fail = fanout;
        for (int i = 1; i <= fanout; i++) {
            double f = lo + (hi - lo) * i / (fanout + 1);
            if (!ok(f)) {
                new_hi = f;
                first_fail = i - 1;
                break;
            }
            new_lo = f;
        }
        t.lowestFailed += first_fail == 0;
        t.noneFailed += first_fail == fanout;
        lo = new_lo;
        hi = new_hi;
    }
    t.estimate = lo;
    return t;
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
    struct Case
    {
        const char *name;
        api::SimConfig cfg;
        double limit;
    };
    auto torus = tinyConfig();
    torus.net.topology = "torus";
    // A torus's capacity exceeds 1 flit/node/cycle, so the injection
    // cap binds: the search starts at hi = 1 / capacity.
    ASSERT_GT(torus.net.capacity(), 1.0);
    const Case cases[] = {
        {"4x4 mesh, limit 4", tinyConfig(), 4.0},
        {"4x4 mesh, limit 20", tinyConfig(), 20.0},
        {"4x4 torus, limit 1000", torus, 1000.0},
    };
    const double tol = 0.02;

    std::vector<double> refs;
    SearchTrace seen;
    for (const auto &tc : cases) {
        SCOPED_TRACE(tc.name);
        auto ref = fullProbeSearch(tc.cfg, tc.limit, tol);
        ASSERT_GT(ref.estimate, 0.2);
        refs.push_back(ref.estimate);
        seen.latencyFailures += ref.latencyFailures;
        seen.lowestFailed += ref.lowestFailed;
        seen.noneFailed += ref.noneFailed;
    }
    // Some probe drained and failed on latency alone, which is where
    // the early exit has to reproduce the full run's verdict.
    EXPECT_GT(seen.latencyFailures, 0);
    // Both edges of a round's bracket update: the first candidate
    // fails (the bracket keeps lo), and none fails (it keeps hi).
    EXPECT_GT(seen.lowestFailed, 0);
    EXPECT_GT(seen.noneFailed, 0);

    const char *env = std::getenv("PDR_THREADS");
    const std::string saved = env ? env : "";
    for (const char *threads : {"1", "2", "4"}) {
        setenv("PDR_THREADS", threads, 1);
        for (std::size_t k = 0; k < refs.size(); k++) {
            for (int workers : {1, 4}) {
                SCOPED_TRACE(std::string(cases[k].name) +
                             ", PDR_THREADS = " + threads +
                             ", par.workers = " + std::to_string(workers));
                auto c = cases[k].cfg;
                c.parWorkers = workers;
                EXPECT_EQ(api::findSaturation(c, cases[k].limit, tol),
                          refs[k]);
            }
        }
    }
    if (env)
        setenv("PDR_THREADS", saved.c_str(), 1);
    else
        unsetenv("PDR_THREADS");
}

TEST(Saturation, UndrainedZeroLoadProbeGivesZero)
{
    auto cfg = tinyConfig();
    cfg.maxCycles = cfg.net.warmup / 2;     // No sample cycle runs.
    EXPECT_EQ(api::findSaturation(cfg), 0.0);
}

TEST(Saturation, EmptySampleIsANamedError)
{
    auto cfg = tinyConfig();
    cfg.net.samplePackets = 0;
    try {
        api::findSaturation(cfg);
        FAIL() << "an empty sample must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("sim.sample_packets"),
                  std::string::npos)
            << e.what();
    }
}
