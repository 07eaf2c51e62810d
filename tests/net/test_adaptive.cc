/**
 * @file
 * West-first adaptive routing tests: turn-model legality, minimality,
 * deadlock-free delivery, and congestion avoidance.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/simulation.hh"
#include "net/adaptive_routing.hh"
#include "net/dor_routing.hh"

using namespace pdr;
using namespace pdr::net;

class WestFirstTest : public testing::Test
{
  protected:
    Lattice mesh{Lattice::mesh2D(8)};
    WestFirstRouting wf{mesh};

    std::vector<int>
    cand(int hx, int hy, int dx, int dy)
    {
        sim::Flit f;
        f.dest = mesh.router2D(dx, dy);
        std::vector<int> out;
        wf.candidates(mesh.router2D(hx, hy), f, out);
        return out;
    }
};

TEST_F(WestFirstTest, WestTrafficIsDeterministic)
{
    // Any destination to the west: only West is offered.
    EXPECT_EQ(cand(5, 2, 1, 6), (std::vector<int>{West}));
    EXPECT_EQ(cand(5, 2, 1, 0), (std::vector<int>{West}));
    EXPECT_EQ(cand(5, 2, 1, 2), (std::vector<int>{West}));
}

TEST_F(WestFirstTest, EastQuadrantIsAdaptive)
{
    auto c = cand(1, 1, 4, 5);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0], East);
    EXPECT_EQ(c[1], North);
}

TEST_F(WestFirstTest, AlignedIsDeterministic)
{
    EXPECT_EQ(cand(3, 3, 6, 3), (std::vector<int>{East}));
    EXPECT_EQ(cand(3, 3, 3, 7), (std::vector<int>{North}));
    EXPECT_EQ(cand(3, 3, 3, 0), (std::vector<int>{South}));
    EXPECT_EQ(cand(3, 3, 3, 3), (std::vector<int>{Local}));
}

TEST_F(WestFirstTest, AdaptiveFlag)
{
    EXPECT_TRUE(wf.isAdaptive());
    DorRouting dor(mesh);
    EXPECT_FALSE(dor.isAdaptive());
}

TEST_F(WestFirstTest, NoTurnIntoWestEver)
{
    // Property over all pairs: any candidate sequence can only use
    // West while no other direction has been used (turn-model check on
    // all minimal adaptive walks, sampled greedily both ways).
    for (sim::NodeId src = 0; src < mesh.numRouters(); src += 5) {
        for (sim::NodeId dest = 0; dest < mesh.numRouters(); dest += 3) {
            sim::NodeId cur = src;
            bool left_west_phase = false;
            int hops = 0;
            sim::Flit f;
            f.dest = dest;
            while (cur != dest) {
                std::vector<int> c;
                wf.candidates(cur, f, c);
                ASSERT_FALSE(c.empty());
                // Pick the last candidate to stress the adaptive arm.
                int port = c.back();
                if (port == West)
                    ASSERT_FALSE(left_west_phase)
                        << "turn into west detected";
                else
                    left_west_phase = true;
                cur = mesh.neighbor(cur, port);
                ASSERT_NE(cur, sim::Invalid);
                ASSERT_LE(++hops, 14) << "non-minimal path";
            }
            EXPECT_EQ(hops, mesh.distance(src, dest));
        }
    }
}

namespace {

api::SimConfig
adaptiveConfig(double load, const std::string &pattern)
{
    api::SimConfig cfg;
    cfg.net.k = 8;
    cfg.net.routing = "westfirst";
    cfg.net.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.net.router.numVcs = 2;
    cfg.net.router.bufDepth = 4;
    cfg.net.pattern = pattern;
    cfg.net.warmup = 2000;
    cfg.net.samplePackets = 4000;
    cfg.net.seed = 11;
    cfg.net.setOfferedFraction(load);
    cfg.maxCycles = 150000;
    return cfg;
}

} // namespace

TEST(Adaptive, DeliversUnderLoadAllModels)
{
    for (auto model : {router::RouterModel::Wormhole,
                       router::RouterModel::VirtualChannel,
                       router::RouterModel::SpecVirtualChannel}) {
        auto cfg = adaptiveConfig(0.3, "uniform");
        cfg.net.router.model = model;
        if (model == router::RouterModel::Wormhole) {
            cfg.net.router.numVcs = 1;
            cfg.net.router.bufDepth = 8;
        }
        auto res = api::runSimulation(cfg);
        EXPECT_TRUE(res.drained)
            << "model " << router::toString(model);
        EXPECT_EQ(res.sampleReceived, res.sampleSize);
    }
}

TEST(Adaptive, HelpsOnTranspose)
{
    // Transpose loads the diagonal unevenly under DOR; west-first
    // adaptivity spreads east-bound traffic over both dimensions, so
    // at a load where DOR is past its knee the adaptive router should
    // not be (meaningfully) worse.
    auto cfg = adaptiveConfig(0.35, "transpose");
    auto adaptive = api::runSimulation(cfg);
    cfg.net.routing = "xy";
    auto dor = api::runSimulation(cfg);
    ASSERT_TRUE(adaptive.drained);
    if (dor.drained) {
        EXPECT_LE(adaptive.avgLatency, dor.avgLatency * 1.25);
    }
}

TEST(Adaptive, ZeroLoadLatencyUnchanged)
{
    // Minimal adaptivity cannot change path lengths.
    auto cfg = adaptiveConfig(0.02, "uniform");
    auto adaptive = api::runSimulation(cfg);
    cfg.net.routing = "xy";
    auto dor = api::runSimulation(cfg);
    ASSERT_TRUE(adaptive.drained && dor.drained);
    EXPECT_NEAR(adaptive.avgLatency, dor.avgLatency, 1.0);
}

TEST(AdaptiveDeath, TorusCombinationRejected)
{
    auto cfg = adaptiveConfig(0.1, "uniform");
    cfg.net.topology = "torus";
    try {
        net::Network n(cfg.net);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("adaptive"),
                  std::string::npos)
            << "message: " << e.what();
    }
}
