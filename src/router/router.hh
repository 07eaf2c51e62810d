/**
 * @file
 * Cycle-accurate models of the paper's three router microarchitectures.
 *
 * One Router class implements all three flow-control methods (plus the
 * single-cycle idealization); the differences are confined to which
 * allocation phases run and when flits become eligible:
 *
 *   Wormhole:  head flits arbitrate for the whole output port, which is
 *              then held until the tail departs; body flits flow without
 *              arbitration (Figure 2's canonical architecture).  The
 *              hold is the v = 1 case of a VC router's output-VC
 *              status: bit 0 of the port's outFree_ word.
 *   VC:        heads allocate an output VC (VA) and then compete, flit by
 *              flit, in a separable switch allocator (Figure 3).
 *   SpecVC:    heads bid for the switch *speculatively* in the same cycle
 *              as VA; non-speculative requests are prioritized, so failed
 *              speculation only wastes the crossbar slot (Section 3.1).
 *
 * Timing (pipelined routers, all at 20 tau4 clock, Figure 11):
 *   A flit arriving at cycle t is decoded/buffered during t+1 and may
 *   take its first allocation action at t+2.  Granted flits traverse the
 *   crossbar the following cycle and spend linkLatency cycles on the
 *   wire, so per-hop latency is 3 (WH, specVC) or 4 (VC) cycles plus the
 *   link.  The single-cycle model acts at t+1 with no crossbar stage.
 *
 * Credits: a departing flit frees its input-buffer slot and sends a
 * credit upstream; an arriving credit is applied as it is popped, so
 * the arrival cycle's allocation may use it.  The credit channel's
 * latency (net.credit_latency) is the whole credit delay, and the
 * paper's 4/5/4/2-cycle buffer-turnaround analysis (Section 5.2)
 * emerges from the pipeline depths alone.
 *
 * Arrivals: each input flit channel and each output credit channel
 * sets this router's bit for its port in flitArrivals_ /
 * creditArrivals_ whenever an item lands in its live queue
 * (sim::Channel::watchArrivals), so the receive phases and nextWake
 * read only the ports with something in flight.  Channels point at
 * those words: a wired router must not move.
 */

#ifndef PDR_ROUTER_ROUTER_HH
#define PDR_ROUTER_ROUTER_HH

#include <memory>
#include <string>
#include <vector>

#include "arb/bitrow.hh"
#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"
#include "router/config.hh"
#include "router/routing.hh"
#include "sim/channel.hh"
#include "sim/flit.hh"
#include "sim/ring.hh"

namespace pdr::router {

/** Counters exposed for tests, benches and examples. */
struct RouterStats
{
    std::uint64_t flitsIn = 0;
    std::uint64_t flitsOut = 0;
    std::uint64_t headGrants = 0;       //!< Heads granted switch passage.
    std::uint64_t vaGrants = 0;         //!< Output VCs allocated.
    std::uint64_t specSaAttempts = 0;   //!< Speculative switch requests.
    std::uint64_t specSaWins = 0;       //!< Spec grants surviving priority.
    std::uint64_t specSaUseful = 0;     //!< Spec grants actually used.
    /**
     * Cycles a VC spent ready-but-creditless, accounted as intervals:
     * a stall is opened once and added here once, when a tick sees it
     * end, so a blocked router can sleep through a stall and still
     * report exactly what per-cycle counting would.  statsAt(now)
     * adds the still-open intervals.
     */
    std::uint64_t creditStallCycles = 0;
    /**
     * Input-buffer occupancy integral in flit-cycles: the sum over
     * completed cycles of the flits buffered in this router's input
     * FIFOs at the end of each cycle.  Interval-accounted like
     * creditStallCycles (occupancy cannot change between a router's
     * ticks), so sleeping schedules report exactly what per-cycle
     * counting would; statsAt(now) flushes through `now`.  Divide by
     * the cycles observed for mean buffered flits.
     */
    std::uint64_t bufOccupancy = 0;
};

/** A cycle-accurate pipelined router. */
class Router
{
  public:
    using FlitChannel = sim::Channel<sim::Flit>;
    using CreditChannel = sim::Channel<sim::Credit>;

    Router(sim::NodeId id, const RouterConfig &cfg,
           const RoutingFunction &routing);

    /**
     * Wire input port `port`: flits arrive on `in`; credits for freed
     * buffers are returned upstream on `credit_out` (nullptr for an
     * unused edge port).  `in` flags its arrivals in this router's
     * flit-arrival mask, so wire it before anything is pushed.
     */
    void connectInput(int port, FlitChannel *in,
                      CreditChannel *credit_out);

    /**
     * Wire output port `port`: departing flits go to `out`; credits
     * from the downstream input buffer come back on `credit_in`.
     * `is_sink` marks an ejection port (infinite downstream buffering,
     * per the paper's immediate-ejection assumption).  `credit_in`
     * flags its arrivals in this router's credit-arrival mask.
     */
    void connectOutput(int port, FlitChannel *out,
                       CreditChannel *credit_in, bool is_sink);

    /** Advance one clock cycle. */
    void tick(sim::Cycle now);

    /**
     * Earliest cycle at which ticking this router can do observable
     * work, evaluated after a tick at `now`.  Skipping every cycle
     * before the returned one is a provable no-op: the router wakes
     * the very next cycle only when some buffered flit can actually
     * act (allocate, depart, or -- under the speculative model --
     * issue a switch bid that evolves arbiter state); a VC that is
     * ready but creditless does NOT pin the router awake, because the
     * stall statistic is interval-accounted and the credit that ends
     * the stall arrives through a watched channel, which re-lowers the
     * wake entry.  Internal future deadlines (pipeline eligibility,
     * VA-to-SA latency) and in-flight channel arrivals bound the
     * result; CycleNever when fully idle.
     *
     * Non-const: deciding to sleep on a ready-but-creditless VC opens
     * its stall interval (openStall), so that a stall *entered* during
     * this tick -- a departure consuming the last credit, a wormhole
     * port release exposing a creditless waiter -- is accounted from
     * the next cycle exactly as a tick-every-cycle schedule would
     * observe it.  Only called on the skipping schedule, right after a
     * tick.
     */
    sim::Cycle nextWake(sim::Cycle now);

    sim::NodeId id() const { return id_; }
    const RouterConfig &config() const { return cfg_; }

    /**
     * One closed credit-stall interval on input VC `vidx` (flat
     * port * numVcs + vc index): cycles [from, to) were spent
     * ready-but-creditless.  Matches creditStallCycles accounting
     * span for span (telemetry trace emission).
     */
    struct StallSpan
    {
        std::uint32_t vidx;
        sim::Cycle from;
        sim::Cycle to;
    };

    /**
     * Record every closed credit-stall interval into `out` (telemetry
     * trace hook; nullptr disables, the default).  Observational:
     * statistics and simulated behavior are unchanged either way.
     * The buffer is owned by the caller and must be distinct per
     * router -- under partitioned stepping each router appends from
     * its owning worker.  Zero-length intervals are not recorded.
     */
    void traceStalls(std::vector<StallSpan> *out) { stallTrace_ = out; }

    /** Flush intervals still open at end-of-run as spans ending at
     *  `now` (no-op unless traceStalls is attached; statistics are
     *  not touched -- statsAt does that independently). */
    void traceOpenStalls(sim::Cycle now);

    /**
     * Statistics as they would read at cycle `now` under a
     * tick-every-cycle schedule: the counters plus the still-open
     * credit-stall intervals and the occupancy integral flushed
     * through `now` (exclusive).  The only read of the counters;
     * `now` must be >= every tick this router has seen.
     */
    RouterStats statsAt(sim::Cycle now) const;

    /** Credits currently available for (outPort, outVc) (tests). */
    int credits(int out_port, int out_vc) const;
    /** Total flits buffered in the input FIFOs of `port` (tests). */
    int buffered(int port) const;
    /** All input FIFOs empty and no resources held (tests). */
    bool quiescent() const;

    // ----- invariant-auditor accessors (sim::Auditor; read-only) -----

    /** Flits buffered in the input FIFO of exactly (port, vc). */
    int auditBuffered(int port, int vc) const
    {
        return int(invc(port, vc).fifo.size());
    }
    /**
     * AUD-WAKE, arrival half: every input flit channel and output
     * credit channel holding items must have its bit set in the
     * arrival masks, or the receive phases would never read it.
     * Returns an empty string when consistent, otherwise a diagnostic
     * naming the first such port and channel kind.
     */
    std::string auditArrivals() const;

    /**
     * TEST ONLY: clear the lowest set bit of the flit-arrival mask,
     * simulating a push that failed to flag its channel (the hazard
     * auditArrivals exists to catch).  Returns the cleared input
     * port, or -1 when no bit is set.
     */
    int dropFlitArrivalForTest();

    /**
     * AUD-BID: recompute the incremental allocation bitsets (RouteWait
     * bids, Active bids, free output-VC words with the wormhole port
     * holds) densely from the per-VC state and compare; and recompute
     * the route record of every RouteWait or Active VC holding a flit
     * from its front flit (the VC mask and next class for the stored
     * route, and for a non-adaptive routing the route itself).
     * Returns an empty string when consistent, otherwise a diagnostic
     * naming the first mismatching entry.
     */
    std::string auditBidState() const;

  private:
    /** Input-VC pipeline states (invc_state / inpc_state of Figs 2, 3). */
    enum class VcState : std::uint8_t
    {
        Idle,       //!< No packet.
        /** Head buffered; routed; awaiting VA (VC) / SA (WH).  It
         *  acts from its own Flit::eligible. */
        RouteWait,
        Active,     //!< Resources held; flits flow through SA/ST.
    };

    /**
     * Per input virtual channel (per input port for WH).
     *
     * route, vcMask and nextClass are the packet's route record for
     * this hop, written together by routeHead() when its head is
     * routed (and, for an adaptive routing only, again on every
     * allocation attempt).  VA and nextWake read the mask, departFlit
     * stamps every departing flit with the class; routing.hh states
     * why one evaluation from the head serves the whole packet.
     */
    struct InputVc
    {
        sim::Ring<sim::Flit> fifo;  //!< Input buffer, sized to bufDepth.
        VcState state = VcState::Idle;
        /** Deadlock class the packet's flits carry after this hop. */
        std::uint8_t nextClass = 0;
        int route = sim::Invalid;   //!< Routed output port.
        /** Output VCs of `route` the packet may be allocated (bit i =
         *  VC i). */
        std::uint32_t vcMask = 0;
        /** Allocated output VC (0 for a wormhole port hold). */
        int outVc = sim::Invalid;
        /** Cycle of the last VA grant; `vaGrantTick == now` is "VA
         *  granted this tick" (the speculation check), and an Active
         *  VC requests the switch from vaGrantTick + vaToSaDelay(). */
        sim::Cycle vaGrantTick = sim::CycleNever;
        /** First cycle of the open credit-stall interval (CycleNever
         *  when not stalled). */
        sim::Cycle stallSince = sim::CycleNever;
    };
    static_assert(sizeof(InputVc) <= 80,
                  "InputVc is streamed by every allocation scan");

    // Hot per-VC state lives in flat structure-of-arrays slabs indexed
    // [port * numVcs + vc] (vidx) rather than nested per-port vectors:
    // the per-cycle loops (allocation scans, nextWake, credit checks)
    // stream one contiguous array each instead of chasing a pointer
    // per port.  Ports keep only their channel wiring.

    struct InputPort
    {
        FlitChannel *in = nullptr;
        CreditChannel *creditOut = nullptr;
    };

    struct OutputPort
    {
        FlitChannel *out = nullptr;
        CreditChannel *creditIn = nullptr;
        bool isSink = false;
    };

    // Tick phases, in order.
    void receiveCredits(sim::Cycle now);
    void receiveFlits(sim::Cycle now);
    void vaPhase(sim::Cycle now);
    void saPhaseWormhole(sim::Cycle now);
    void saPhaseVc(sim::Cycle now);

    /** Dequeue the front flit of (port, vc) and send it out. */
    void departFlit(int in_port, int in_vc, int out_port, int out_vc,
                    sim::Cycle now);
    /** Tail departed: free VC/port and hand the FIFO to the next head. */
    void releaseAndTakeOver(int in_port, int in_vc, int out_port,
                            int out_vc, sim::Cycle now);

    bool hasCredit(int out_port, int out_vc) const;
    /** Earliest allocation action for a flit arriving now. */
    sim::Cycle firstActionDelay() const { return cfg_.singleCycle ? 1 : 2; }
    /** Cycles from a VA grant to the VC's first switch request (the
     *  unit-latency model requests in the grant cycle). */
    sim::Cycle vaToSaDelay() const { return cfg_.singleCycle ? 0 : 1; }

    /** Flat [port * numVcs + vc] index into the per-VC slabs. */
    std::size_t
    vidx(int port, int vc) const
    {
        return std::size_t(port) * std::size_t(cfg_.numVcs) +
               std::size_t(vc);
    }
    InputVc &invc(int port, int vc) { return invcs_[vidx(port, vc)]; }
    const InputVc &
    invc(int port, int vc) const
    {
        return invcs_[vidx(port, vc)];
    }

    /**
     * (port, vc) is ready but creditless from cycle `at` on (a tick
     * observed it so at `at`, or nextWake decided to sleep on it from
     * `at`): open the interval unless one is already open.  The
     * condition cannot change between the router's ticks -- the
     * credit that ends it arrives on a watched channel during a tick,
     * which closes the interval there.
     */
    void
    openStall(InputVc &ivc, sim::Cycle at)
    {
        if (ivc.stallSince == sim::CycleNever)
            ivc.stallSince = at;
    }
    /** Observed (port, vc) not stalled at `now`: close the interval
     *  and add its cycles [stallSince, now) to the counter, once. */
    void
    closeStall(InputVc &ivc, sim::Cycle now)
    {
        if (ivc.stallSince == sim::CycleNever)
            return;
        stats_.creditStallCycles += now - ivc.stallSince;
        if (stallTrace_ && now > ivc.stallSince) {
            stallTrace_->push_back(
                {std::uint32_t(&ivc - invcs_.data()), ivc.stallSince,
                 now});
        }
        ivc.stallSince = sim::CycleNever;
    }

    /**
     * Route selection for a head flit.  Deterministic routing returns
     * route() directly; adaptive routing picks the candidate with the
     * most downstream buffer space (re-evaluated on every allocation
     * attempt, per the paper's footnote-5 re-iteration policy).
     */
    int selectRoute(const sim::Flit &head);
    /** Route `head`'s packet: write ivc's route record (output port,
     *  VC mask and next class) in one go. */
    void routeHead(InputVc &ivc, const sim::Flit &head);
    /** Free downstream buffer space through `out_port` (adaptivity
     *  metric). */
    int portScore(int out_port) const;

    sim::NodeId id_;
    RouterConfig cfg_;
    const RoutingFunction &routing_;
    /** routing_.isAdaptive(), cached: only an adaptive routing
     *  re-routes a head on every allocation attempt. */
    bool adaptive_ = false;

    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;

    // SoA per-VC slabs, all indexed by vidx(port, vc).
    std::vector<InputVc> invcs_;        //!< Input VC pipeline state.
    std::vector<int> outCredits_;       //!< Downstream buffer credits.

    /**
     * Free output VCs as one packed word per output port (bit vc set =
     * unallocated; bits >= numVcs always clear).  VA hands the words
     * straight to the allocator, and nextWake's VA-candidate test is
     * one AND.  A wormhole port hold is bit 0 (v = 1): cleared at the
     * head's switch grant, set again when the tail departs.
     */
    std::vector<std::uint64_t> outFree_;

    /**
     * Incremental allocation-bid bitsets over vidx, the in-router
     * analog of the network wake table: bidRouteWait_ holds every VC
     * in RouteWait (head routed, awaiting VA -- or SA for wormhole),
     * bidActive_ every Active VC with a buffered flit.  syncBid()
     * re-derives both bits from (state, fifo) at every mutation point
     * (flit arrival, VA grant, departure, tail takeover), so the
     * allocation phases and nextWake iterate only set bits instead of
     * walking all p * v VCs.  Audited against a dense recompute by
     * AUD-BID (auditBidState).
     */
    std::vector<std::uint64_t> bidRouteWait_;
    std::vector<std::uint64_t> bidActive_;
    int vcWords_ = 1;   //!< Words per bid bitset (wordsFor(p * v)).

    /** Re-derive (port, vc)'s bits in the bid bitsets from its state. */
    void
    syncBid(std::size_t vi)
    {
        const InputVc &ivc = invcs_[vi];
        const std::size_t w = vi >> 6;
        const std::uint64_t bit = std::uint64_t(1) << (vi & 63);
        if (ivc.state == VcState::RouteWait)
            bidRouteWait_[w] |= bit;
        else
            bidRouteWait_[w] &= ~bit;
        if (ivc.state == VcState::Active && !ivc.fifo.empty())
            bidActive_[w] |= bit;
        else
            bidActive_[w] &= ~bit;
    }

    /**
     * Ports with items in flight toward this router: bit port of
     * flitArrivals_ is set iff inputs_[port].in holds items, bit port
     * of creditArrivals_ iff outputs_[port].creditIn does (ports <= 64,
     * RouterConfig::validate).  Channel pushes set the bits; the
     * receive phases clear a bit when they empty its channel.
     */
    std::uint64_t flitArrivals_ = 0;
    std::uint64_t creditArrivals_ = 0;

    /**
     * Interval-accounted input-buffer occupancy (stats_.bufOccupancy):
     * the flit count only changes during this router's ticks
     * (receiveFlits push / departFlit pop), so folding
     * bufferedNow_ * elapsed at each tick reproduces per-cycle
     * counting under any sleep schedule.
     */
    int bufferedNow_ = 0;           //!< Flits in the input FIFOs now.
    sim::Cycle occObsAt_ = 0;       //!< Integral folded through here.

    /** Telemetry stall-span sink (traceStalls); nullptr = off. */
    std::vector<StallSpan> *stallTrace_ = nullptr;

    /** Speculative switch bids are issued for every ready RouteWait VC
     *  each cycle (evolving arbiter state + specSaAttempts), so such
     *  VCs pin the router awake; cached model predicate. */
    bool specBids_ = false;

    // Allocators, constructed per model: whArb_ for wormhole; vcAlloc_
    // plus either saAlloc_ (VC, unit-latency and equal-priority
    // specVC) or specAlloc_ (pipelined specVC) otherwise.
    std::unique_ptr<arb::WormholeSwitchArbiter> whArb_;
    std::unique_ptr<arb::VcAllocator> vcAlloc_;
    std::unique_ptr<arb::SeparableSwitchAllocator> saAlloc_;
    std::unique_ptr<arb::SpeculativeSwitchAllocator> specAlloc_;

    // Per-tick scratch.
    std::vector<arb::VaRequest> vaReqs_;
    std::vector<arb::SaRequest> saReqs_;
    std::vector<int> candScratch_;

    RouterStats stats_;
};

} // namespace pdr::router

#endif // PDR_ROUTER_ROUTER_HH
