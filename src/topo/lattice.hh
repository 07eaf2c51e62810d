/**
 * @file
 * Generalized lattice topologies: k-ary n-cubes (meshes and tori of any
 * dimension count and per-dimension radix) with optional concentration
 * (c terminal nodes per router).
 *
 * This subsystem owns all network geometry: coordinate math, port
 * numbering, neighbor/wrap/distance queries and the uniform-traffic
 * capacity normalization.  The execution core (Network, Router) and the
 * routing functions consume it through this interface only, so new
 * geometries land as registry entries instead of new simulator code.
 *
 * Terminology:
 *  - A *router* is a switch point of the lattice; there are
 *    prod(radix_d) of them, numbered with dimension 0 fastest-varying
 *    (id = sum coord_d * stride_d, stride_0 = 1).
 *  - A *node* is a traffic terminal (source + sink).  Each router hosts
 *    `concentration` nodes: node = router * c + local_index.
 *
 * Port convention (chosen so the classic 2D mesh keeps its historical
 * numbering N=0, E=1, S=2, W=3, Local=4):
 *  - ports [0, n)     : "plus" directions, port i = +dim(n-1-i)
 *  - ports [n, 2n)    : "minus" directions, port n+i = -dim(n-1-i)
 *  - ports [2n, 2n+c) : local injection/ejection, one per hosted node
 * so opposite(p) = (p + n) mod 2n for directional ports.
 */

#ifndef PDR_TOPO_LATTICE_HH
#define PDR_TOPO_LATTICE_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace pdr::topo {

/** A k-ary n-cube / n-mesh with concentration. */
class Lattice
{
  public:
    /** Dimension cap: per-dimension dateline VC-class bits must fit a
     *  flit's 8-bit vclass next to the routing-order/phase bit. */
    static constexpr int kMaxDims = 6;

    /**
     * General form: one radix and wrap flag per dimension, plus the
     * concentration factor.  Throws std::invalid_argument on bad
     * shapes (empty, radix < 2, too many dims, c < 1).
     */
    Lattice(std::vector<int> radices, std::vector<bool> wraps,
            int concentration = 1);

    // Named constructors for the common registry entries.
    static Lattice mesh2D(int k) { return kAryNMesh(2, k); }
    static Lattice torus2D(int k) { return kAryNCube(2, k); }
    static Lattice kAryNMesh(int n, int k);
    static Lattice kAryNCube(int n, int k);     //!< All dims wrap.
    static Lattice cmesh(int k, int c);         //!< 2D mesh, c nodes/router.

    int dims() const { return int(radix_.size()); }
    int radix(int d) const { return radix_[std::size_t(d)]; }
    bool wraps(int d) const { return wrap_[std::size_t(d)]; }
    /** Any dimension wraps. */
    bool wraps() const;
    int concentration() const { return conc_; }

    int numRouters() const { return numRouters_; }
    int numNodes() const { return numRouters_ * conc_; }
    /** Physical router ports: 2 per dimension + c local. */
    int numPorts() const { return 2 * dims() + conc_; }

    // ----- node <-> router mapping -----------------------------------
    sim::NodeId routerOf(sim::NodeId node) const
    {
        return node / conc_;
    }
    int localIndexOf(sim::NodeId node) const { return node % conc_; }
    sim::NodeId nodeAt(sim::NodeId router, int local) const
    {
        return router * conc_ + local;
    }

    // ----- port numbering --------------------------------------------
    int plusPort(int d) const { return dims() - 1 - d; }
    int minusPort(int d) const { return 2 * dims() - 1 - d; }
    bool isDirectional(int port) const { return port < 2 * dims(); }
    bool isLocalPort(int port) const { return port >= 2 * dims(); }
    int localPort(int local) const { return 2 * dims() + local; }
    /** Hosted-node index of a local port. */
    int localIndexOfPort(int port) const { return port - 2 * dims(); }
    /** Dimension a directional port moves along. */
    int dimOfPort(int port) const
    {
        return dims() - 1 - (port % dims());
    }
    bool isPlusPort(int port) const { return port < dims(); }
    /** Reverse direction of a directional port. */
    int opposite(int port) const;
    /** "N"/"E"/"S"/"W" on 2D, "U"/"D" for the third dim, "P<d>"/"M<d>"
     *  beyond, "L"/"L<j>" for local ports. */
    std::string portName(int port) const;

    // ----- coordinates -----------------------------------------------
    int coordOf(sim::NodeId router, int d) const
    {
        return (router / stride_[std::size_t(d)]) % radix_[std::size_t(d)];
    }
    sim::NodeId routerAt(const std::vector<int> &coords) const;
    /** 2D convenience (dim 0 = x, dim 1 = y). */
    sim::NodeId router2D(int x, int y) const
    {
        return routerAt({x, y});
    }

    /** Router through directional `port`; Invalid at a mesh edge
     *  (wrapping dimensions wrap). */
    sim::NodeId neighbor(sim::NodeId router, int port) const;

    /** True if the `port` link out of `router` is a wraparound link
     *  (and hence a dateline for deadlock-avoidance VC classes). */
    bool isWrapLink(sim::NodeId router, int port) const;

    /** Minimal hop count between routers (wrap-aware). */
    int distance(sim::NodeId a, sim::NodeId b) const;

    /**
     * Network capacity under uniform random traffic in flits per node
     * per cycle: the bisection bound 2 * B_c / N, with B_c the
     * unidirectional channel count across the narrowest dimension cut.
     * Reduces to 4/k for a k x k mesh and 8/k for the torus; dividing
     * by the concentration factor for concentrated meshes.  The
     * figures' x-axes quote offered traffic as a fraction of this.
     */
    double uniformCapacity() const;

    /** Mean router hop distance between distinct nodes under uniform
     *  traffic (node pairs sharing a router count as distance 0). */
    double meanUniformDistance() const;

    bool operator==(const Lattice &o) const
    {
        return radix_ == o.radix_ && wrap_ == o.wrap_ &&
               conc_ == o.conc_;
    }

  private:
    std::vector<int> radix_;    //!< Per-dimension radix.
    std::vector<bool> wrap_;    //!< Per-dimension wraparound.
    std::vector<int> stride_;   //!< Router-id stride per dimension.
    int conc_;                  //!< Nodes per router.
    int numRouters_;
};

} // namespace pdr::topo

#endif // PDR_TOPO_LATTICE_HH
