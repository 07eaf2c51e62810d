/**
 * @file
 * Ejection sink: absorbs flits at the destination node ("immediate
 * ejection"), validates packet integrity, and records latency and
 * throughput statistics.
 *
 * Integrity is checked per ejection VC.  An output VC carries one
 * packet at a time, from its VA grant to its tail's departure
 * (wormhole holds the whole port), so every flit must either continue
 * its VC's packet at the next sequence number or be a head, at seq 0,
 * on an idle VC.  That also catches two packets interleaved on one VC
 * and a packet that changed VC on the way.
 *
 * While recordDeliveries(true) is set the sink logs each completed
 * packet in a vector of its own, written only by the worker that ticks
 * the sink; Network::takeDeliveries() collects the logs between
 * cycles.
 */

#ifndef PDR_TRAFFIC_SINK_HH
#define PDR_TRAFFIC_SINK_HH

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

    /** `num_vcs` is the ejection port's VC count (router.num_vcs). */
    Sink(sim::NodeId node, int packet_length, int num_vcs,
         MeasureController &ctrl, FlitChannel *from_router,
         stats::LatencyStats &latency);

    /** Drain arrived flits. */
    void tick(sim::Cycle now);

    /**
     * Earliest cycle at which an in-flight flit matures on the
     * ejection channel; CycleNever when none (a sink holds no state
     * that evolves without input).
     */
    sim::Cycle nextWake() const { return in_->nextReady(); }

    /** Log every completed packet while `on` (off by default). */
    void recordDeliveries(bool on) { recording_ = on; }

    /** Append the logged packets, in ejection order, to `out` and
     *  clear the log. */
    void
    takeDeliveries(std::vector<Delivery> &out)
    {
        out.insert(out.end(), log_.begin(), log_.end());
        log_.clear();
    }

    /** Flits received after the warm-up point (for throughput). */
    std::uint64_t measuredFlits() const { return measuredFlits_; }
    /** All flits ever received. */
    std::uint64_t totalFlits() const { return totalFlits_; }
    /** Complete packets received. */
    std::uint64_t packets() const { return packets_; }

  private:
    /** The packet an ejection VC is carrying; nextSeq == 0 is an idle
     *  VC, waiting for a head. */
    struct VcSlot
    {
        sim::PacketId packet = 0;
        int nextSeq = 0;
    };

    sim::NodeId node_;
    int packetLength_;
    MeasureController &ctrl_;
    FlitChannel *in_;
    stats::LatencyStats &latency_;
    std::vector<VcSlot> vcs_;   //!< One per ejection VC.

    bool recording_ = false;
    std::vector<Delivery> log_;

    std::uint64_t measuredFlits_ = 0;
    std::uint64_t totalFlits_ = 0;
    std::uint64_t packets_ = 0;
};

} // namespace pdr::traffic

#endif // PDR_TRAFFIC_SINK_HH
