/**
 * @file
 * A complete lattice network: routers, link and credit channels,
 * per-node sources and sinks, and aggregate statistics.
 *
 * The network mirrors the paper's simulation setup: an 8x8 mesh,
 * dimension-ordered routing, credit-based flow control, 1-cycle channel
 * propagation (credit propagation independently configurable for the
 * Figure-18 experiment), constant-rate sources injecting fixed-length
 * packets, and immediate ejection at the destination.  The geometry is
 * fully general (topo::Lattice): k-ary n-cubes of any dimension count
 * and concentrated meshes (c nodes per router) build the same way, with
 * router port counts (2n directional + c local) derived from the
 * topology.
 *
 * Hot-path layout: all components live in contiguous value slabs
 * (vector<Router>, vector<Source>, ... -- reserved exactly, never
 * reallocated), flits travel by value in the queues that own them
 * (channels and router input FIFOs), and stepping is activity-driven:
 * a wake table (one cycle per component, lowered by channel pushes)
 * lets step() skip every component that provably has nothing to do
 * this cycle.  Skipping is a pure scheduling optimization -- simulated
 * behavior, statistics and RNG streams are bit-identical to ticking
 * everything (forceTickAll(true) restores the naive schedule so tests
 * can prove it).
 */

#ifndef PDR_NET_NETWORK_HH
#define PDR_NET_NETWORK_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/registry.hh"
#include "net/topology.hh"
#include "router/router.hh"
#include "sim/audit.hh"
#include "stats/latency.hh"
#include "traffic/measure.hh"
#include "traffic/sink.hh"
#include "traffic/source.hh"

namespace pdr::net {

/**
 * Full-network configuration.  The scenario axes (topology, routing
 * function, traffic pattern) are string keys into the corresponding
 * registries, so externally registered scenarios are reachable from
 * experiment files without touching this struct.  Invalid values throw
 * std::invalid_argument at Network construction (or earlier, from
 * api::params::validate).
 */
struct NetworkConfig
{
    int k = 8;                          //!< Per-dimension radix.
    std::string topology = "mesh";      //!< TopologyRegistry name.
    /** RoutingRegistry name; "auto" picks the topology's default
     *  ("xy" on the mesh, "dateline" on the torus, "dor" beyond). */
    std::string routing = "auto";
    /** Per-router configuration.  numPorts == 0 means "derive from
     *  the topology" (2 per dimension + concentration); a nonzero
     *  value must match the topology exactly. */
    router::RouterConfig router;
    sim::Cycle linkLatency = 1;         //!< Flit propagation (cycles).
    sim::Cycle creditLatency = 1;       //!< Credit propagation (cycles).
    double injectionRate = 0.1;         //!< Offered flits/node/cycle.
    int packetLength = 5;               //!< Flits per packet.
    /** MMPP bursty arrivals: mean ON-state (burst) dwell in cycles;
     *  0 = plain Bernoulli arrivals (the paper's process).  Set both
     *  burstOn and burstOff (>= 1 cycle each) or neither. */
    double burstOn = 0.0;
    /** MMPP mean OFF-state (gap) dwell in cycles. */
    double burstOff = 0.0;
    std::string pattern = "uniform";    //!< PatternRegistry name.
    /** Permutation file for traffic.pattern=permfile (one destination
     *  node index per line). */
    std::string permfile;
    std::uint64_t seed = 1;
    sim::Cycle warmup = 10000;          //!< Warm-up cycles.
    std::uint64_t samplePackets = 100000; //!< Sample-space size.
    /**
     * Run the per-cycle invariant auditor (sim::Auditor): wake-table
     * exactness, per-link credit conservation, flit conservation.
     * Purely observational -- results are bit-identical either way --
     * but costs a scan per cycle, so it is a debug switch, not a
     * production default.  PDR_AUDIT=1 in the environment enables it
     * regardless of this flag.
     */
    bool audit = false;

    /** The routing name after resolving "auto" via the topology. */
    std::string resolvedRouting() const;

    /** Build the configured geometry (throws on bad topology/radix). */
    Lattice makeLattice() const;

    /**
     * Full cross-field validation without building the network:
     * registry names, router constraints, topology/routing/pattern
     * compatibility, rate ranges.  Throws std::invalid_argument with
     * a precise message.  The Network constructor runs the same
     * checks, so anything this accepts will construct.
     */
    void validate() const;

    /**
     * The cross-field checks given already-built geometry and routing
     * (the Network constructor path -- validate() minus rebuilding
     * the lattice, pattern and routing, so permfiles are read once).
     */
    void validateWith(const Lattice &lat,
                      const router::RoutingFunction &routing_fn) const;

    /** Uniform-traffic capacity (flits/node/cycle, bisection bound);
     *  throws on an unknown topology or bad radix. */
    double capacity() const;

    /** Offered load as a fraction of uniform-traffic capacity. */
    double offeredFraction() const { return injectionRate / capacity(); }

    /** Set the injection rate from a fraction of capacity. */
    void setOfferedFraction(double f) { injectionRate = f * capacity(); }
};

bool operator==(const NetworkConfig &a, const NetworkConfig &b);
inline bool
operator!=(const NetworkConfig &a, const NetworkConfig &b)
{
    return !(a == b);
}

/**
 * Something that samples the network at fixed simulated-time epochs
 * (telem::Telemetry; tests plug in fakes).  Network::drive calls it
 * only between cycles, with any worker gang parked, so it may read
 * any network state.
 */
class EpochObserver
{
  public:
    virtual ~EpochObserver() = default;

    /** The furthest a clock jump bounded by `limit` may go: never past
     *  the next epoch. */
    virtual sim::Cycle cap(sim::Cycle limit) const = 0;

    /** Handle every epoch due at the network's now(). */
    virtual void poll() = 0;
};

/** The simulated network. */
class Network
{
  public:
    using FlitChannel = sim::Channel<sim::Flit>;
    using CreditChannel = sim::Channel<sim::Credit>;

    explicit Network(const NetworkConfig &cfg);

    // Components hold pointers into the channel slabs and the wake
    // table, so a constructed network is pinned in place.
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Advance one cycle (sources, routers, sinks).  Never jumps the
     *  clock: lockstep harnesses rely on step() == one cycle. */
    void step();

    /** Advance n cycles, fast-forwarding through idle regions (same
     *  end state as n step() calls; see skipIdle). */
    void run(sim::Cycle n);

    /** Advance to cycle `limit`, fast-forwarding through idle
     *  regions (drive() with step()). */
    void stepTo(sim::Cycle limit);

    /**
     * The one stepping loop.  Until now() reaches `limit` or `stop`
     * holds (checked before each jump; empty = never): poll `obs`,
     * jump idle cycles up to obs->cap(limit), poll again, then call
     * `advance` -- this network's step() or a par::ParallelStepper's
     * -- to run one cycle.  One last poll follows the loop.
     *
     * Resume rule: a jump that stops on the observer's cap with no
     * component due there resumes instead of stepping, so the cycles
     * that run -- and every result -- are those of the same loop
     * without an observer.  `obs` may be null.
     */
    void drive(sim::Cycle limit, const std::function<void()> &advance,
               const std::function<bool()> &stop, EpochObserver *obs);

    // ----- clock fast-forward ----------------------------------------

    /**
     * Earliest entry in the wake table: the next cycle at which any
     * component can do observable work.  CycleNever when the whole
     * network is at a fixed point.
     */
    sim::Cycle nextWakeCycle() const;

    /**
     * Fast-forward the clock to min(nextWakeCycle(), limit) without
     * ticking anything; returns the new now().  A no-op when some
     * component is due now (or when forceTickAll is on -- the naive
     * schedule never jumps).  Skipped cycles are provable no-ops for
     * every component: wake entries are exact (see Router::nextWake /
     * Source::nextWake), statistics are interval-accounted, and
     * sources replay their skipped RNG draws on their next tick, so
     * the post-jump state is bit-identical to stepping cycle by
     * cycle.
     */
    sim::Cycle skipIdle(sim::Cycle limit);

    // ----- partition-sliced stepping (par::ParallelStepper) ----------
    //
    // One serial step() is exactly tickSources(0, N) + tickRouters(0,
    // R) + tickSinks(0, N) + finishCycle().  The stepper calls the
    // slice of each phase on its owning worker instead; slices only
    // touch the wake-table entries and components of their own range,
    // and channels crossing a partition boundary are switched to
    // staged mode, so concurrent slices never race.

    /** Tick sources [lo, hi) at the current cycle, honoring (and
     *  updating) their wake-table slice. */
    void tickSources(sim::NodeId lo, sim::NodeId hi);
    /** Tick routers [lo, hi) likewise. */
    void tickRouters(sim::NodeId lo, sim::NodeId hi);
    /** Tick sinks [lo, hi) likewise. */
    void tickSinks(sim::NodeId lo, sim::NodeId hi);
    /** Advance the cycle counter after all phases of a cycle ran. */
    void finishCycle() { now_++; }

    // ----- channel topology view (partition boundary discovery) ------

    std::size_t numFlitChans() const { return flitChans_.size(); }
    FlitChannel &flitChan(std::size_t i) { return flitChans_[i]; }
    /** Wake-table component id of the channel's single producer. */
    std::size_t flitChanProducer(std::size_t i) const
    {
        return flitProducer_[i];
    }
    /** Wake-table component id of the channel's single consumer. */
    std::size_t flitChanConsumer(std::size_t i) const
    {
        return flitConsumer_[i];
    }
    std::size_t numCreditChans() const { return creditChans_.size(); }
    CreditChannel &creditChan(std::size_t i) { return creditChans_[i]; }
    std::size_t creditChanProducer(std::size_t i) const
    {
        return creditProducer_[i];
    }
    std::size_t creditChanConsumer(std::size_t i) const
    {
        return creditConsumer_[i];
    }

    /** Wake-table index of source / router / sink (the component-id
     *  space the channel producer/consumer views use). */
    std::size_t srcComp(sim::NodeId node) const
    {
        return std::size_t(node);
    }
    std::size_t rtrComp(sim::NodeId r) const
    {
        return std::size_t(mesh_.numNodes() + r);
    }
    std::size_t snkComp(sim::NodeId node) const
    {
        return std::size_t(mesh_.numNodes() + mesh_.numRouters() +
                           node);
    }

    /**
     * Disable activity-driven scheduling: tick every component every
     * cycle (the naive schedule).  Simulated behavior is identical
     * either way -- this exists so equivalence tests can step a
     * skipping and a non-skipping network in lockstep and compare.
     */
    void forceTickAll(bool on);

    /** Have every sink log its delivered packets while `on` (off by
     *  default); takeDeliveries() collects the logs. */
    void recordDeliveries(bool on);

    /**
     * The packets delivered since the last call while recording, in
     * serial ejection order -- cycle first, then node -- whatever the
     * worker count that stepped them; clears the sinks' logs.  Call
     * between cycles.
     */
    std::vector<traffic::Delivery> takeDeliveries();

    /**
     * Count router ticks into `weights` (one slot per router, index
     * order, incremented on every actual tick); nullptr disables.
     * Observational (the engine profiler's tick-weight signal): the
     * tick schedule is a pure function of the wake table, so the
     * counts are deterministic and byte-identical across worker
     * counts, and workers own disjoint router ranges so the
     * increments never share a slot.
     */
    void profileTickWeights(std::vector<std::uint64_t> *weights)
    {
        tickWeights_ = weights;
    }

    sim::Cycle now() const { return now_; }
    const NetworkConfig &config() const { return cfg_; }
    const Lattice &lattice() const { return mesh_; }
    traffic::MeasureController &controller() { return ctrl_; }

    /** Router `r` of the lattice (r in [0, numRouters)). */
    router::Router &routerAt(sim::NodeId r) { return routers_[r]; }
    const router::Router &routerAt(sim::NodeId r) const
    {
        return routers_[r];
    }
    /** Source / sink of terminal node `n` (n in [0, numNodes)). */
    traffic::Source &sourceAt(sim::NodeId n) { return sources_[n]; }
    const traffic::Sink &sinkAt(sim::NodeId n) const
    {
        return sinks_[n];
    }

    /** Merged latency statistics over the sample space. */
    stats::LatencyStats latency() const;

    /** Accepted traffic since warm-up, in flits per node per cycle. */
    double acceptedFlitRate() const;

    // ----- telemetry sampling hooks (read-only aggregates) -----------

    /** Flits delivered at all sinks since cycle 0 (telemetry window
     *  deltas; warm-up traffic included, unlike measuredFlits). */
    std::uint64_t deliveredFlits() const;
    /** Complete packets delivered at all sinks since cycle 0. */
    std::uint64_t deliveredPackets() const;
    /** Flits between source and sink right now: in flight on a flit
     *  channel or buffered in a router input FIFO.  Read between
     *  cycles (staging buffers are empty then). */
    std::size_t flitsInFlight() const;

    /** Accepted traffic as a fraction of uniform capacity. */
    double acceptedFraction() const
    {
        return acceptedFlitRate() / mesh_.uniformCapacity();
    }

    /** Aggregate router statistics, with still-open credit-stall
     *  intervals flushed through now() (Router::statsAt), so totals
     *  match the tick-everything schedule even when routers are
     *  asleep mid-stall. */
    router::RouterStats routerTotals() const;

    /** All routers idle, sources drained (diagnostics).  Replays any
     *  lazily deferred source arrival draws first, so backlog reads
     *  match the tick-everything schedule. */
    bool quiescent();

    // ----- runtime invariant auditor (sim::Auditor) ------------------

    /** The auditor is active: step() cross-checks the wake table and
     *  credit conservation every cycle. */
    bool auditEnabled() const { return auditor_ != nullptr; }

    /**
     * Per-cycle checks, run before a cycle's tick phases (by step(),
     * or by the parallel stepper's worker 0 with the gang parked):
     * [AUD-WAKE] no consumer sleeps past a matured channel item, and
     * no router's arrival mask hides a non-empty input channel;
     * [AUD-CREDIT] every link VC conserves its buffer depth;
     * [AUD-BID] every router's bid bitsets and route records match
     * a dense recompute.
     * Requires auditEnabled().
     */
    void auditCycle();

    /** The auditor (check counters); nullptr when auditing is off. */
    const sim::Auditor *auditor() const { return auditor_.get(); }

    /**
     * [AUD-LEAK] Verify flit conservation: the flits the sources sent
     * minus the flits the sinks ejected must equal flitsInFlight().
     * Throws sim::AuditError saying how many flits were lost or
     * duplicated.  Call before destruction (runSimulation does when
     * auditing is on); requires auditEnabled().
     */
    void auditTeardown();

    /** Human-readable name of wake-table slot `comp` ("source 3",
     *  "router 12", "sink 0") for diagnostics. */
    std::string componentName(std::size_t comp) const;

    /**
     * TEST ONLY: overwrite a wake-table entry, simulating a component
     * whose nextWake() under-reports (the hazard class the auditor
     * exists to catch).  tests/sim/test_audit.cc plants a future wake
     * over a component with matured input and expects the next step()
     * to throw [AUD-WAKE].
     */
    void
    setWakeAtForTest(std::size_t comp, sim::Cycle t)
    {
        wakeAt_[comp] = t;
    }

  private:
    NetworkConfig cfg_;
    Lattice mesh_;
    std::unique_ptr<router::RoutingFunction> routing_;
    traffic::MeasureController ctrl_;
    std::unique_ptr<traffic::TrafficPattern> pattern_;

    // Contiguous slabs, reserved exactly in the constructor and never
    // resized afterwards (components hand out interior pointers).
    std::vector<FlitChannel> flitChans_;
    std::vector<CreditChannel> creditChans_;
    /** Component ids of each channel's producer / consumer (partition
     *  boundary discovery; same index space as the slabs above). */
    std::vector<std::size_t> flitProducer_, flitConsumer_;
    std::vector<std::size_t> creditProducer_, creditConsumer_;
    std::vector<router::Router> routers_;
    std::vector<traffic::Source> sources_;
    std::vector<traffic::Sink> sinks_;
    std::vector<stats::LatencyStats> sinkLatency_;

    /**
     * Per-component wake times, indexed [sources | routers | sinks]
     * (numNodes + numRouters + numNodes entries): component i runs at
     * cycle t iff wakeAt_[i] <= t.  Channel pushes lower entries
     * (Channel::watch); after each tick the component reports its own
     * next wake.
     */
    std::vector<sim::Cycle> wakeAt_;
    bool forceTickAll_ = false;

    sim::Cycle now_ = 0;

    /** Per-router tick-weight sink (engine profiler); see
     *  profileTickWeights(). */
    std::vector<std::uint64_t> *tickWeights_ = nullptr;

    // ----- invariant auditing (allocated only when enabled) ----------

    /** One credit-conserving hop: the flit channel and its reverse
     *  credit channel between an upstream credit holder (router
     *  output or source) and a downstream input FIFO. */
    struct AuditLink
    {
        sim::NodeId upRouter;   //!< Upstream router; Invalid = source.
        sim::NodeId upNode;     //!< Source node when upRouter Invalid.
        int outPort;            //!< Upstream output port (routers).
        sim::NodeId downRouter; //!< Downstream router id.
        int inPort;             //!< Downstream input port.
        std::size_t flitChan;   //!< Index into flitChans_.
        std::size_t creditChan; //!< Index into creditChans_.
    };

    std::unique_ptr<sim::Auditor> auditor_;
    std::vector<AuditLink> auditLinks_;

    FlitChannel *newFlitChan(sim::Cycle latency, std::size_t producer,
                             std::size_t consumer);
    CreditChannel *newCreditChan(sim::Cycle latency,
                                 std::size_t producer,
                                 std::size_t consumer);
};

} // namespace pdr::net

#endif // PDR_NET_NETWORK_HH
