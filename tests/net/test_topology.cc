/** @file Tests for the generalized lattice topology subsystem. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/topology.hh"

using namespace pdr;
using namespace pdr::net;
using topo::Lattice;

TEST(Topology, TwoDPortConventionMatchesTheClassicMesh)
{
    // The 2D lattice keeps the historical numbering: N=0 (+y), E=1
    // (+x), S=2 (-y), W=3 (-x), Local=4.
    Lattice m = Lattice::mesh2D(8);
    EXPECT_EQ(m.plusPort(1), North);
    EXPECT_EQ(m.plusPort(0), East);
    EXPECT_EQ(m.minusPort(1), South);
    EXPECT_EQ(m.minusPort(0), West);
    EXPECT_EQ(m.localPort(0), Local);
    EXPECT_EQ(m.numPorts(), NumPorts);
}

TEST(Topology, CoordinatesRoundTrip)
{
    Lattice m = Lattice::mesh2D(8);
    for (int x = 0; x < 8; x++) {
        for (int y = 0; y < 8; y++) {
            auto n = m.router2D(x, y);
            EXPECT_EQ(m.coordOf(n, 0), x);
            EXPECT_EQ(m.coordOf(n, 1), y);
            EXPECT_EQ(n, sim::NodeId(y * 8 + x));  // Row-major ids.
        }
    }
}

TEST(Topology, NeighborsInterior)
{
    Lattice m = Lattice::mesh2D(8);
    auto n = m.router2D(3, 3);
    EXPECT_EQ(m.neighbor(n, North), m.router2D(3, 4));
    EXPECT_EQ(m.neighbor(n, South), m.router2D(3, 2));
    EXPECT_EQ(m.neighbor(n, East), m.router2D(4, 3));
    EXPECT_EQ(m.neighbor(n, West), m.router2D(2, 3));
}

TEST(Topology, EdgesHaveNoNeighbor)
{
    Lattice m = Lattice::mesh2D(8);
    EXPECT_EQ(m.neighbor(m.router2D(0, 0), West), sim::Invalid);
    EXPECT_EQ(m.neighbor(m.router2D(0, 0), South), sim::Invalid);
    EXPECT_EQ(m.neighbor(m.router2D(7, 7), East), sim::Invalid);
    EXPECT_EQ(m.neighbor(m.router2D(7, 7), North), sim::Invalid);
}

TEST(Topology, NeighborSymmetryAcrossLattices)
{
    for (const Lattice &lat :
         {Lattice::mesh2D(4), Lattice::torus2D(4),
          Lattice::kAryNCube(3, 3), Lattice::cmesh(4, 4)}) {
        for (sim::NodeId n = 0; n < lat.numRouters(); n++) {
            for (int p = 0; p < 2 * lat.dims(); p++) {
                auto nb = lat.neighbor(n, p);
                if (nb != sim::Invalid) {
                    EXPECT_EQ(lat.neighbor(nb, lat.opposite(p)), n);
                }
            }
        }
    }
}

TEST(Topology, OppositePorts)
{
    Lattice m = Lattice::mesh2D(4);
    EXPECT_EQ(m.opposite(North), South);
    EXPECT_EQ(m.opposite(South), North);
    EXPECT_EQ(m.opposite(East), West);
    EXPECT_EQ(m.opposite(West), East);

    Lattice c = Lattice::kAryNCube(3, 4);
    for (int d = 0; d < 3; d++) {
        EXPECT_EQ(c.opposite(c.plusPort(d)), c.minusPort(d));
        EXPECT_EQ(c.opposite(c.minusPort(d)), c.plusPort(d));
        EXPECT_EQ(c.dimOfPort(c.plusPort(d)), d);
        EXPECT_EQ(c.dimOfPort(c.minusPort(d)), d);
    }
}

TEST(Topology, Distance)
{
    Lattice m = Lattice::mesh2D(8);
    EXPECT_EQ(m.distance(m.router2D(0, 0), m.router2D(7, 7)), 14);
    EXPECT_EQ(m.distance(m.router2D(3, 3), m.router2D(3, 3)), 0);
    EXPECT_EQ(m.distance(m.router2D(1, 2), m.router2D(4, 0)), 5);
}

TEST(Topology, UniformCapacityBisectionBound)
{
    EXPECT_DOUBLE_EQ(Lattice::mesh2D(8).uniformCapacity(), 0.5);
    EXPECT_DOUBLE_EQ(Lattice::mesh2D(4).uniformCapacity(), 1.0);
    EXPECT_DOUBLE_EQ(Lattice::mesh2D(16).uniformCapacity(), 0.25);
    // Torus doubles the bisection; the 3-cube follows 8/k too.
    EXPECT_DOUBLE_EQ(Lattice::torus2D(8).uniformCapacity(), 1.0);
    EXPECT_DOUBLE_EQ(Lattice::kAryNCube(3, 4).uniformCapacity(), 2.0);
    // Concentration divides per-node capacity by c.
    EXPECT_DOUBLE_EQ(Lattice::cmesh(8, 4).uniformCapacity(), 0.125);
    EXPECT_DOUBLE_EQ(Lattice::cmesh(8, 2).uniformCapacity(), 0.25);
}

TEST(Topology, MeanUniformDistanceMatchesBruteForce)
{
    for (const Lattice &lat :
         {Lattice::mesh2D(8), Lattice::torus2D(6),
          Lattice::kAryNCube(3, 3), Lattice::cmesh(4, 2)}) {
        double sum = 0.0;
        long pairs = 0;
        for (sim::NodeId a = 0; a < lat.numNodes(); a++) {
            for (sim::NodeId b = 0; b < lat.numNodes(); b++) {
                if (a == b)
                    continue;
                sum += lat.distance(lat.routerOf(a), lat.routerOf(b));
                pairs++;
            }
        }
        EXPECT_NEAR(lat.meanUniformDistance(), sum / double(pairs),
                    1e-9);
    }
}

TEST(Topology, ConcentrationMapping)
{
    Lattice c = Lattice::cmesh(4, 4);
    EXPECT_EQ(c.numRouters(), 16);
    EXPECT_EQ(c.numNodes(), 64);
    EXPECT_EQ(c.numPorts(), 8);     // 4 directions + 4 local.
    for (sim::NodeId node = 0; node < c.numNodes(); node++) {
        sim::NodeId r = c.routerOf(node);
        int j = c.localIndexOf(node);
        EXPECT_EQ(c.nodeAt(r, j), node);
        EXPECT_TRUE(c.isLocalPort(c.localPort(j)));
        EXPECT_EQ(c.localIndexOfPort(c.localPort(j)), j);
    }
}

TEST(Topology, KAry3CubeGeometry)
{
    Lattice c = Lattice::kAryNCube(3, 4);
    EXPECT_EQ(c.dims(), 3);
    EXPECT_EQ(c.numRouters(), 64);
    EXPECT_EQ(c.numPorts(), 7);
    EXPECT_TRUE(c.wraps());
    // Every dimension wraps: the far corner is 3 hops away.
    EXPECT_EQ(c.distance(c.routerAt({0, 0, 0}), c.routerAt({3, 3, 3})),
              3);
    // Wrap links are datelines.
    EXPECT_TRUE(c.isWrapLink(c.routerAt({3, 0, 0}), c.plusPort(0)));
    EXPECT_FALSE(c.isWrapLink(c.routerAt({1, 0, 0}), c.plusPort(0)));
}

TEST(Topology, PortNames)
{
    Lattice m = Lattice::mesh2D(4);
    EXPECT_EQ(m.portName(North), "N");
    EXPECT_EQ(m.portName(Local), "L");
    Lattice c = Lattice::kAryNCube(3, 4);
    EXPECT_EQ(c.portName(c.plusPort(2)), "U");
    EXPECT_EQ(c.portName(c.minusPort(2)), "D");
    Lattice cm = Lattice::cmesh(4, 2);
    EXPECT_EQ(cm.portName(cm.localPort(1)), "L1");
}

TEST(TopologyDeath, BadShapesRejected)
{
    EXPECT_THROW(Lattice::mesh2D(1), std::invalid_argument);
    EXPECT_THROW(Lattice({4, 4}, {false}), std::invalid_argument);
    EXPECT_THROW(Lattice({4}, {false}, 0), std::invalid_argument);
    EXPECT_THROW(Lattice::kAryNCube(7, 4), std::invalid_argument);
}
