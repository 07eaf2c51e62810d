/** @file Tests for n-dimensional dimension-order routing. */

#include <gtest/gtest.h>

#include "net/dor_routing.hh"

using namespace pdr;
using namespace pdr::net;
using topo::Lattice;

namespace {

sim::Flit
toward(sim::NodeId dest)
{
    sim::Flit f;
    f.dest = dest;
    return f;
}

} // namespace

class DorMeshTest : public testing::Test
{
  protected:
    Lattice mesh{Lattice::mesh2D(8)};
    DorRouting dor{mesh};

    int
    route(sim::NodeId here, sim::NodeId dest)
    {
        auto f = toward(dest);
        return dor.route(here, f);
    }
};

TEST_F(DorMeshTest, LocalAtDestination)
{
    for (sim::NodeId n : {0, 21, 63})
        EXPECT_EQ(route(n, n), Local);
}

TEST_F(DorMeshTest, XCorrectedFirst)
{
    // From (0,0) to (3,5): go East until x matches.
    EXPECT_EQ(route(mesh.router2D(0, 0), mesh.router2D(3, 5)), East);
    EXPECT_EQ(route(mesh.router2D(2, 0), mesh.router2D(3, 5)), East);
    EXPECT_EQ(route(mesh.router2D(3, 0), mesh.router2D(3, 5)), North);
    EXPECT_EQ(route(mesh.router2D(5, 2), mesh.router2D(3, 5)), West);
}

TEST_F(DorMeshTest, YOnlyWhenAligned)
{
    EXPECT_EQ(route(mesh.router2D(4, 6), mesh.router2D(4, 2)), South);
    EXPECT_EQ(route(mesh.router2D(4, 1), mesh.router2D(4, 2)), North);
}

TEST_F(DorMeshTest, EveryPairTerminates)
{
    // Property: following the routing function always reaches dest in
    // exactly distance(src, dest) hops.
    for (sim::NodeId src = 0; src < mesh.numRouters(); src++) {
        for (sim::NodeId dest = 0; dest < mesh.numRouters(); dest++) {
            sim::NodeId cur = src;
            int hops = 0;
            while (cur != dest) {
                int port = route(cur, dest);
                ASSERT_NE(port, Local);
                cur = mesh.neighbor(cur, port);
                ASSERT_NE(cur, sim::Invalid)
                    << "routed off the mesh edge";
                ASSERT_LE(++hops, 14);
            }
            EXPECT_EQ(hops, mesh.distance(src, dest));
        }
    }
}

TEST_F(DorMeshTest, NoYThenXTurns)
{
    // Dimension order: once a packet moves in Y it never moves in X
    // again (deadlock freedom of DOR on the mesh).
    for (sim::NodeId src = 0; src < mesh.numRouters(); src += 3) {
        for (sim::NodeId dest = 0; dest < mesh.numRouters();
             dest += 5) {
            if (src == dest)
                continue;
            sim::NodeId cur = src;
            bool moved_y = false;
            while (cur != dest) {
                int port = route(cur, dest);
                if (port == North || port == South) {
                    moved_y = true;
                } else if (port == East || port == West) {
                    ASSERT_FALSE(moved_y) << "X move after Y move";
                }
                cur = mesh.neighbor(cur, port);
            }
        }
    }
}

TEST_F(DorMeshTest, MeshNeedsNoVcClasses)
{
    auto f = toward(10);
    EXPECT_EQ(dor.minVcs(), 1);
    EXPECT_EQ(dor.nextClass(f, 0, East), 0);
    EXPECT_EQ(dor.vcMask(f, 0, East, 2) & 0x3u, 0x3u);
}

TEST(DorCube, DimensionOrderOnThreeDims)
{
    Lattice cube = Lattice::kAryNCube(3, 4);
    DorRouting dor(cube);
    auto route = [&](sim::NodeId here, sim::NodeId dest) {
        auto f = toward(dest);
        return dor.route(here, f);
    };
    // x, then y, then z.
    auto src = cube.routerAt({0, 0, 0});
    EXPECT_EQ(route(src, cube.routerAt({1, 1, 1})), cube.plusPort(0));
    EXPECT_EQ(route(cube.routerAt({1, 0, 0}), cube.routerAt({1, 1, 1})),
              cube.plusPort(1));
    EXPECT_EQ(route(cube.routerAt({1, 1, 0}), cube.routerAt({1, 1, 1})),
              cube.plusPort(2));
    // Wrap: 0 -> 3 is one hop the minus way.
    EXPECT_EQ(route(src, cube.routerAt({3, 0, 0})), cube.minusPort(0));
    // Exactly half-way: tie goes plus.
    EXPECT_EQ(route(src, cube.routerAt({2, 0, 0})), cube.plusPort(0));
}

TEST(DorCube, MinimalEverywhere)
{
    Lattice cube = Lattice::kAryNCube(3, 3);
    DorRouting dor(cube);
    for (sim::NodeId src = 0; src < cube.numRouters(); src++) {
        for (sim::NodeId dest = 0; dest < cube.numRouters(); dest++) {
            sim::NodeId cur = src;
            int hops = 0;
            auto f = toward(dest);
            while (cur != dest) {
                int port = dor.route(cur, f);
                ASSERT_TRUE(cube.isDirectional(port));
                cur = cube.neighbor(cur, port);
                ASSERT_LE(++hops, 6);
            }
            EXPECT_EQ(hops, cube.distance(src, dest));
        }
    }
}

TEST(DorCmesh, EjectsOnTheRightLocalPort)
{
    Lattice cm = Lattice::cmesh(4, 4);
    DorRouting dor(cm);
    for (sim::NodeId node = 0; node < cm.numNodes(); node += 3) {
        auto f = toward(node);
        int port = dor.route(cm.routerOf(node), f);
        EXPECT_EQ(port, cm.localPort(cm.localIndexOf(node)));
    }
    // A destination on another router routes like plain DOR.
    auto f = toward(cm.nodeAt(cm.router2D(2, 0), 1));
    EXPECT_EQ(dor.route(cm.router2D(0, 0), f), East);
}
