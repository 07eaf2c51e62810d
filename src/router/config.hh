/**
 * @file
 * Router model configuration.
 *
 * Three microarchitectures from the paper, each with the pipeline the
 * delay model prescribes for practical parameters at a 20 tau4 clock:
 *
 *  - Wormhole (WH):        3 stages  RC | SA | ST
 *  - VirtualChannel (VC):  4 stages  RC | VA | SA | ST
 *  - SpecVirtualChannel:   3 stages  RC | VA+SA (parallel) | ST
 *
 * plus the "single-cycle" idealization of Section 5.2, where the whole
 * router fits in one cycle (the commonly assumed unit-latency model the
 * paper argues against).
 *
 * Credits: a credit arriving at a router is usable by the switch
 * allocator the cycle it arrives.  The paper's buffer-turnaround
 * differences (Figure 16 / Section 5.2: 4 cycles for WH and specVC, 5
 * for VC, 2 for the single-cycle model) emerge structurally from the
 * pipeline position of switch allocation; a slower credit loop is a
 * longer credit channel (NetworkConfig::creditLatency).
 */

#ifndef PDR_ROUTER_CONFIG_HH
#define PDR_ROUTER_CONFIG_HH

#include <string>

#include "sim/types.hh"

namespace pdr::router {

/** Which flow control the router implements. */
enum class RouterModel
{
    Wormhole,
    VirtualChannel,
    SpecVirtualChannel,
};

const char *toString(RouterModel m);

/** Parse "WH" / "VC" / "specVC"; throws std::invalid_argument. */
RouterModel routerModelFromString(const std::string &name);

/** Static configuration of one router. */
struct RouterConfig
{
    RouterModel model = RouterModel::Wormhole;
    /** Unit-latency idealization (Section 5.2). */
    bool singleCycle = false;
    /**
     * Number of physical ports (2D mesh: 4 directions + local).  In a
     * Network, 0 means "derive from the topology" (2 per dimension +
     * concentration); standalone routers need a concrete count.
     */
    int numPorts = 5;
    /** Virtual channels per physical port (1 for wormhole). */
    int numVcs = 1;
    /** Buffer depth in flits per VC FIFO (WH: per input port). */
    int bufDepth = 8;
    /**
     * Ablation: drop the non-spec-over-spec priority of the
     * speculative switch allocator and arbitrate all requests in one
     * separable allocator.  The paper argues prioritization makes
     * speculation conservative ("it will never reduce router
     * performance"); this switch lets you measure what happens
     * without it.
     */
    bool specEqualPriority = false;

    /** Pipeline depth in cycles (per-hop router latency). */
    int pipelineDepth() const;

    /** Sanity-check the configuration; throws std::invalid_argument
     *  naming the offending parameter, so the sweep engine and CLI can
     *  report bad configs as per-point errors. */
    void validate() const;
};

inline bool
operator==(const RouterConfig &a, const RouterConfig &b)
{
    return a.model == b.model && a.singleCycle == b.singleCycle &&
           a.numPorts == b.numPorts && a.numVcs == b.numVcs &&
           a.bufDepth == b.bufDepth &&
           a.specEqualPriority == b.specEqualPriority;
}

inline bool
operator!=(const RouterConfig &a, const RouterConfig &b)
{
    return !(a == b);
}

} // namespace pdr::router

#endif // PDR_ROUTER_CONFIG_HH
