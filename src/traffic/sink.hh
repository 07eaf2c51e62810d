/**
 * @file
 * Ejection sink: absorbs flits at the destination node ("immediate
 * ejection"), validates packet integrity, and records latency and
 * throughput statistics.
 */

#ifndef PDR_TRAFFIC_SINK_HH
#define PDR_TRAFFIC_SINK_HH

#include <unordered_map>
#include <vector>

#include "sim/channel.hh"
#include "sim/flit.hh"
#include "stats/latency.hh"
#include "traffic/measure.hh"

namespace pdr::traffic {

/** One completed packet, as observed at its ejection port. */
struct Delivery
{
    sim::PacketId packet;
    sim::NodeId dest;
    sim::Cycle at;          //!< Cycle the tail flit was ejected.
    sim::Cycle latency;     //!< Creation-to-ejection latency.
};

/** Per-node ejection sink. */
class Sink
{
  public:
    using FlitChannel = sim::Channel<sim::Flit>;

    Sink(sim::NodeId node, int packet_length, MeasureController &ctrl,
         FlitChannel *from_router, stats::LatencyStats &latency);

    /** Drain arrived flits. */
    void tick(sim::Cycle now);

    /**
     * Earliest cycle at which an in-flight flit matures on the
     * ejection channel; CycleNever when none (a sink holds no state
     * that evolves without input).
     */
    sim::Cycle nextWake() const { return in_->nextReady(); }

    /**
     * Append every completed packet to `trace` (cycle-accuracy
     * harnesses compare these across Network variants).  nullptr
     * disables tracing (the default; zero cost).
     */
    void recordDeliveries(std::vector<Delivery> *trace)
    {
        trace_ = trace;
    }

    /** Flits received after the warm-up point (for throughput). */
    std::uint64_t measuredFlits() const { return measuredFlits_; }
    /** All flits ever received. */
    std::uint64_t totalFlits() const { return totalFlits_; }
    /** Complete packets received. */
    std::uint64_t packets() const { return packets_; }

  private:
    sim::NodeId node_;
    int packetLength_;
    MeasureController &ctrl_;
    FlitChannel *in_;
    stats::LatencyStats &latency_;
    std::vector<Delivery> *trace_ = nullptr;

    /** Next expected sequence number per in-flight packet. */
    // pdr-lint: allow(PDR-ORD-UNORD) keyed erase/lookup only, never
    // iterated, so bucket order cannot reach any result.
    std::unordered_map<sim::PacketId, int> expectSeq_;

    std::uint64_t measuredFlits_ = 0;
    std::uint64_t totalFlits_ = 0;
    std::uint64_t packets_ = 0;
};

} // namespace pdr::traffic

#endif // PDR_TRAFFIC_SINK_HH
