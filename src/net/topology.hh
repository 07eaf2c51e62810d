/**
 * @file
 * Network-layer view of the topology subsystem.
 *
 * Geometry lives in topo::Lattice (src/topo/lattice.hh): arbitrary
 * dimension count, per-dimension radix and wrap flags, concentration.
 * Every routing function and the Network consume the generalized
 * lattice.
 *
 * The Port enum spells out the lattice port convention for the 2D case
 * (the paper's k x k mesh with one node per router): 0 = North (+y),
 * 1 = East (+x), 2 = South (-y), 3 = West (-x), 4 = Local.  2D-only
 * code (the west-first turn model, the mesh tests) may use these names;
 * dimension-generic code must go through Lattice::plusPort /
 * minusPort / localPort instead.
 */

#ifndef PDR_NET_TOPOLOGY_HH
#define PDR_NET_TOPOLOGY_HH

#include "topo/lattice.hh"

namespace pdr::net {

using topo::Lattice;

/** 2D specialization of the lattice port numbering (c = 1). */
enum Port : int
{
    North = 0,
    East = 1,
    South = 2,
    West = 3,
    Local = 4,
    NumPorts = 5,
};

} // namespace pdr::net

#endif // PDR_NET_TOPOLOGY_HH
