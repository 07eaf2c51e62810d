/**
 * @file
 * Routing-function interface.
 *
 * The paper treats routing as a black box occupying the first pipeline
 * stage; the simulations use deterministic dimension-ordered routing (a
 * routing function of range Rp: it names a single output physical
 * channel, and the VC allocator may pick any free VC on it).
 *
 * The interface is packet-centric: decisions read the head flit, which
 * carries everything per-packet routing state needs -- the destination,
 * the deadlock-avoidance VC class, and (for randomized oblivious
 * schemes like Valiant) the intermediate node chosen at injection.
 * initPacket() is the injection-time hook where oblivious routings draw
 * that per-packet state; deterministic routings leave it alone (and
 * draw nothing, keeping RNG streams untouched).
 *
 * Route once per hop.  The router evaluates route() (or, for an
 * adaptive routing, candidates()), vcMask() and nextClass() together
 * when a packet's head is routed at a router, keeps the results as the
 * packet's route record for that hop, and stamps the record's class on
 * every flit of the packet as it departs.  That is exact because of a
 * purity contract every implementation must keep:
 *
 *  - route(), candidates(), vcMask() and nextClass() read only the
 *    flit's packet fields `dest`, `vclass` and `inter`, plus `here`,
 *    `out_port` and `num_vcs` -- never its type, sequence number,
 *    timestamps or VC, and no mutable state of their own;
 *  - the source stamps one `vclass` and one `inter` on every flit of a
 *    packet, and each hop rewrites all of a packet's flits to the same
 *    next class.
 *
 * So the value computed from the head equals the value computed from
 * any flit of the packet, at every hop.  A non-adaptive routing
 * (isAdaptive() false) must return exactly { route() } from
 * candidates(): the router then calls route() alone.  Only an adaptive
 * routing is re-evaluated on every allocation attempt (footnote 5),
 * and its vcMask() and nextClass() with it.  The invariant auditor
 * (PDR_AUDIT=1, check AUD-BID) recomputes the record from the front
 * flit of every occupied VC and names the first mismatch.
 */

#ifndef PDR_ROUTER_ROUTING_HH
#define PDR_ROUTER_ROUTING_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "sim/flit.hh"
#include "sim/types.hh"

namespace pdr::router {

/** Per-packet routing state chosen once, at injection. */
struct PacketInit
{
    /** Initial deadlock-avoidance VC class (e.g. O1TURN's dimension
     *  order bit, Valiant's phase bit). */
    std::uint8_t vclass = 0;
    /** Intermediate node for two-phase schemes; Invalid otherwise. */
    sim::NodeId inter = sim::Invalid;
};

/** Routing function: head flit -> output physical channel. */
class RoutingFunction
{
  public:
    virtual ~RoutingFunction() = default;

    /**
     * Output port at router `here` for the packet `head` describes.
     * Must return the matching local/ejection port when `here` is the
     * destination's router.
     */
    virtual int route(sim::NodeId here, const sim::Flit &head) const = 0;

    /**
     * Adaptive candidates: legal output ports at `here`, in preference
     * order.  The router picks one per attempt (the paper's footnote-5
     * policy for speculative routers: the routing function is limited
     * to returning a single output port, and the packet re-iterates
     * through routing upon an unsuccessful bid).  Default: the single
     * deterministic route.
     */
    virtual void
    candidates(sim::NodeId here, const sim::Flit &head,
               std::vector<int> &out) const
    {
        out.clear();
        out.push_back(route(here, head));
    }

    /** True if candidates() may return more than one port. */
    virtual bool isAdaptive() const { return false; }

    /**
     * Injection-time per-packet state: the source calls this once per
     * created packet and stamps the result on every flit.  Oblivious
     * routings draw their randomness (order bit, intermediate node)
     * from `rng` here; deterministic routings must not touch it.
     */
    virtual PacketInit
    initPacket(sim::NodeId src, sim::NodeId dest, Rng &rng) const
    {
        (void)src;
        (void)dest;
        (void)rng;
        return {};
    }

    /**
     * Output VCs the packet may be allocated on `out_port` (bit i =
     * VC i), given its current VC class.  Default: no restriction.
     * Dateline schemes confine post-dateline packets to the upper VCs;
     * O1TURN/Valiant additionally partition by order/phase.
     */
    virtual std::uint32_t
    vcMask(const sim::Flit &head, sim::NodeId here, int out_port,
           int num_vcs) const
    {
        (void)head;
        (void)here;
        (void)out_port;
        (void)num_vcs;
        return ~0u;
    }

    /**
     * Deadlock class of the packet after traversing `out_port` from
     * `here` (e.g. dateline crossings set per-dimension bits, reaching
     * a Valiant intermediate flips the phase bit).  Default: 0.
     */
    virtual int
    nextClass(const sim::Flit &f, sim::NodeId here, int out_port) const
    {
        (void)f;
        (void)here;
        (void)out_port;
        return 0;
    }

    /**
     * Minimum VCs per physical channel this routing needs for deadlock
     * freedom on its lattice (e.g. 2 for dateline DOR on a torus, 4
     * for O1TURN on a torus).  NetworkConfig::validate enforces it.
     */
    virtual int minVcs() const { return 1; }
};

} // namespace pdr::router

#endif // PDR_ROUTER_ROUTING_HH
