/** @file Tests for the parallel sweep-execution engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "exec/sweep.hh"
#include "exec/thread_pool.hh"

using namespace pdr;
using exec::SweepOptions;
using exec::SweepPoint;
using exec::SweepRunner;
using router::RouterModel;

namespace {

api::SimConfig
tinyConfig(double load = 0.2)
{
    api::SimConfig cfg;
    cfg.net.k = 4;
    cfg.net.router.model = RouterModel::SpecVirtualChannel;
    cfg.net.router.numVcs = 2;
    cfg.net.router.bufDepth = 4;
    cfg.net.warmup = 200;
    cfg.net.samplePackets = 300;
    cfg.net.setOfferedFraction(load);
    cfg.maxCycles = 100000;
    return cfg;
}

std::vector<SweepPoint>
tinyGrid()
{
    std::vector<SweepPoint> points;
    for (double f : {0.1, 0.2, 0.3, 0.4})
        points.push_back({"p", tinyConfig(f)});
    return points;
}

/** Every per-point field that the simulation produces, bit for bit. */
void
expectIdentical(const exec::SweepResults &a, const exec::SweepResults &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); i++) {
        const auto &pa = a.points[i];
        const auto &pb = b.points[i];
        EXPECT_EQ(pa.ok, pb.ok) << "point " << i;
        EXPECT_EQ(pa.cfg.net.seed, pb.cfg.net.seed) << "point " << i;
        EXPECT_EQ(pa.res.offeredFraction, pb.res.offeredFraction);
        EXPECT_EQ(pa.res.acceptedFraction, pb.res.acceptedFraction);
        EXPECT_EQ(pa.res.avgLatency, pb.res.avgLatency);
        EXPECT_EQ(pa.res.p99Latency, pb.res.p99Latency);
        EXPECT_EQ(pa.res.sampleReceived, pb.res.sampleReceived);
        EXPECT_EQ(pa.res.drained, pb.res.drained);
        EXPECT_EQ(pa.res.cycles, pb.res.cycles);
        EXPECT_EQ(pa.res.routers.flitsIn, pb.res.routers.flitsIn);
        EXPECT_EQ(pa.res.routers.flitsOut, pb.res.routers.flitsOut);
    }
}

} // namespace

TEST(SweepRunner, BitIdenticalAcrossThreadCounts)
{
    auto points = tinyGrid();

    SweepOptions base;
    base.baseSeed = 42;

    SweepOptions o1 = base, o2 = base, o8 = base;
    o1.threads = 1;
    o2.threads = 2;
    o8.threads = 8;

    auto r1 = SweepRunner(o1).run(points);
    auto r2 = SweepRunner(o2).run(points);
    auto r8 = SweepRunner(o8).run(points);

    EXPECT_EQ(r1.threads, 1);
    EXPECT_EQ(r2.threads, 2);
    EXPECT_EQ(r8.threads, 8);
    EXPECT_EQ(r1.failures(), 0u);

    expectIdentical(r1, r2);
    expectIdentical(r1, r8);
}

TEST(SweepRunner, BaseSeedChangesResults)
{
    auto points = tinyGrid();
    SweepOptions oa, ob;
    oa.baseSeed = 1;
    ob.baseSeed = 2;
    auto ra = SweepRunner(oa).run(points);
    auto rb = SweepRunner(ob).run(points);
    // Different seeds => different sampled latencies (same protocol).
    bool any_diff = false;
    for (std::size_t i = 0; i < ra.points.size(); i++)
        any_diff |= ra.points[i].res.avgLatency !=
                    rb.points[i].res.avgLatency;
    EXPECT_TRUE(any_diff);
}

TEST(SweepRunner, ResultsKeepInputOrder)
{
    std::vector<SweepPoint> points;
    for (int i = 0; i < 16; i++)
        points.push_back({"pt" + std::to_string(i), tinyConfig()});

    // Make early points slow so a naive completion-order collection
    // would scramble the results.
    SweepOptions opts;
    opts.threads = 4;
    auto res = SweepRunner(opts).run(
        points, [](const api::SimConfig &cfg) {
            static std::atomic<int> calls{0};
            if (calls++ < 4) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
            api::SimResults r;
            r.offeredFraction = cfg.net.offeredFraction();
            return r;
        });

    ASSERT_EQ(res.points.size(), 16u);
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(res.points[i].label, "pt" + std::to_string(i));
}

TEST(SweepRunner, ThrowingPointDoesNotHangOrPoisonOthers)
{
    std::vector<SweepPoint> points;
    for (int i = 0; i < 8; i++) {
        // Alternate loads so the evaluator can fail every other point.
        points.push_back(
            {"pt" + std::to_string(i), tinyConfig(i % 2 ? 0.2 : 0.1)});
    }

    SweepOptions opts;
    opts.threads = 2;
    auto res = SweepRunner(opts).run(
        points, [](const api::SimConfig &cfg) -> api::SimResults {
            if (cfg.net.offeredFraction() < 0.15)
                throw std::runtime_error("boom");
            api::SimResults r;
            r.avgLatency = 1.0;
            return r;
        });

    ASSERT_EQ(res.points.size(), 8u);
    for (std::size_t i = 0; i < res.points.size(); i++) {
        const auto &p = res.points[i];
        if (i % 2 == 0) {
            EXPECT_FALSE(p.ok) << "point " << i;
            EXPECT_EQ(p.error, "boom");
        } else {
            EXPECT_TRUE(p.ok) << "point " << i;
            EXPECT_EQ(p.res.avgLatency, 1.0);
        }
    }
    EXPECT_EQ(res.failures(), 4u);
    EXPECT_THROW(res.throwIfFailed(), std::runtime_error);
}

TEST(SweepRunner, PointSeedsAreDistinctAndStable)
{
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 1000; i++)
        seen.insert(SweepRunner::pointSeed(7, i));
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_EQ(SweepRunner::pointSeed(7, 3), SweepRunner::pointSeed(7, 3));
    EXPECT_NE(SweepRunner::pointSeed(7, 3), SweepRunner::pointSeed(8, 3));
}

TEST(SweepRunner, SweepLoadMatchesSerialReference)
{
    auto cfg = tinyConfig();
    std::vector<double> loads{0.1, 0.3};
    auto curve = api::sweepLoad(cfg, loads);
    ASSERT_EQ(curve.size(), 2u);

    for (std::size_t i = 0; i < loads.size(); i++) {
        auto ref_cfg = cfg;
        ref_cfg.net.setOfferedFraction(loads[i]);
        auto ref = api::runSimulation(ref_cfg);
        EXPECT_EQ(curve[i].avgLatency, ref.avgLatency);
        EXPECT_EQ(curve[i].cycles, ref.cycles);
    }
}

TEST(SweepBuilder, CrossProductOrderAndLabels)
{
    auto points = exec::SweepBuilder(tinyConfig())
                      .model("wh", RouterModel::Wormhole, 1, 8)
                      .model("vc", RouterModel::VirtualChannel, 2, 4)
                      .loads({0.1, 0.2})
                      .build();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].label, "wh@0.100");
    EXPECT_EQ(points[1].label, "vc@0.100");
    EXPECT_EQ(points[2].label, "wh@0.200");
    EXPECT_EQ(points[3].label, "vc@0.200");
    EXPECT_EQ(points[1].cfg.net.router.model,
              RouterModel::VirtualChannel);
    EXPECT_NEAR(points[2].cfg.net.offeredFraction(), 0.2, 1e-9);
}

TEST(SweepBuilder, TopologyAxisPreservesOfferedFraction)
{
    auto cfg = tinyConfig();
    cfg.net.router.numVcs = 2;
    auto points = exec::SweepBuilder(cfg)
                      .loads({0.4})
                      .topology(4, "mesh")
                      .topology(4, "torus")
                      .build();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].cfg.net.topology, "mesh");
    EXPECT_EQ(points[1].cfg.net.topology, "torus");
    EXPECT_EQ(points[0].label, "0.400/mesh4");
    EXPECT_EQ(points[1].label, "0.400/torus4");
    // Same fraction of each topology's own capacity.
    EXPECT_NEAR(points[0].cfg.net.offeredFraction(), 0.4, 1e-9);
    EXPECT_NEAR(points[1].cfg.net.offeredFraction(), 0.4, 1e-9);
    // Torus capacity is double, so the raw rate differs.
    EXPECT_GT(points[1].cfg.net.injectionRate,
              points[0].cfg.net.injectionRate);
}

TEST(SweepResults, TableExportHasOneRowPerPoint)
{
    SweepOptions opts;
    opts.threads = 2;
    auto res = SweepRunner(opts).run(tinyGrid());
    auto table = res.toTable();
    EXPECT_EQ(table.numRows(), 4u);
    auto csv = table.toCsv();
    EXPECT_NE(csv.find("avg_latency"), std::string::npos);
    auto json = table.toJson();
    EXPECT_NE(json.find("\"label\": "), std::string::npos);
    // No wall-clock column: exports are diffable across thread counts.
    EXPECT_EQ(csv.find("wall_ms"), std::string::npos);
}

TEST(SweepRunner, HeaviestFirstSubmitsByDescendingLoad)
{
    // Ascending-load input; a single worker executes in submission
    // order, so the observed order reveals the schedule.
    auto points = tinyGrid();
    SweepOptions opts;
    opts.threads = 1;
    std::vector<double> seen;
    std::mutex mu;
    auto res = SweepRunner(opts).run(
        points, [&](const api::SimConfig &cfg) {
            std::lock_guard<std::mutex> lock(mu);
            seen.push_back(cfg.net.offeredFraction());
            return api::SimResults{};
        });
    ASSERT_EQ(seen.size(), 4u);
    for (std::size_t i = 1; i < seen.size(); i++)
        EXPECT_GE(seen[i - 1], seen[i]) << "position " << i;
    // Results still come back in input (ascending-load) order.
    for (std::size_t i = 1; i < res.points.size(); i++)
        EXPECT_LT(res.points[i - 1].cfg.net.offeredFraction(),
                  res.points[i].cfg.net.offeredFraction());
}
