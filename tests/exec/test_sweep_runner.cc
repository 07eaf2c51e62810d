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

    // The pool adds nothing to a point: each pooled result is exactly
    // the serial api::runSimulation of the config it ran as.
    for (const auto &p : r2.points) {
        auto ref = api::runSimulation(p.cfg);
        EXPECT_EQ(p.res.avgLatency, ref.avgLatency) << p.index;
        EXPECT_EQ(p.res.acceptedFraction, ref.acceptedFraction) << p.index;
        EXPECT_EQ(p.res.cycles, ref.cycles) << p.index;
    }
}

TEST(SweepRunner, FirstIndexMakesASliceReproduceItsRows)
{
    auto points = tinyGrid();
    SweepOptions full_opts;
    full_opts.baseSeed = 9;
    auto full = SweepRunner(full_opts).run(points);

    // Points [2, 4) run on their own as grid points 2 and 3.
    SweepOptions slice_opts = full_opts;
    slice_opts.firstIndex = 2;
    std::vector<SweepPoint> tail_points(points.begin() + 2, points.end());
    auto slice = SweepRunner(slice_opts).run(tail_points);

    ASSERT_EQ(slice.points.size(), 2u);
    exec::SweepResults tail;
    tail.points.assign(full.points.begin() + 2, full.points.end());
    expectIdentical(tail, slice);
    for (std::size_t i = 0; i < 2; i++) {
        EXPECT_EQ(slice.points[i].index, 2 + i);
        EXPECT_EQ(slice.points[i].cfg.net.seed,
                  SweepRunner::pointSeed(9, 2 + i));
    }
    // Exported, the slice's rows are the full table's last two rows.
    std::string full_csv = full.toTable().toCsv();
    std::string slice_csv = slice.toTable().toCsv();
    std::string body = slice_csv.substr(slice_csv.find('\n') + 1);
    EXPECT_EQ(full_csv.substr(full_csv.size() - body.size()), body);
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
