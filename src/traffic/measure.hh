/**
 * @file
 * Measurement protocol of the paper's Section 5.
 *
 * Each simulation runs a warm-up phase (10,000 cycles in the paper);
 * thereafter the next `samplePackets` injected packets (100,000 in the
 * paper) form the sample space and the simulation continues until all of
 * them have been received.  Sources keep injecting while the sample
 * drains so the network stays loaded.  Latency spans packet creation to
 * last-flit ejection, including source queueing.
 *
 * The controller is the one piece of state every source and sink of a
 * network shares, so partitioned stepping (src/par/) needs its help to
 * stay bit-identical with the serial schedule.  The counters are
 * relaxed atomics (pure commutative sums), and tagMode() classifies
 * each cycle before the parallel source phase:
 *
 *   None    - no tryTag() call can mutate state this cycle (still in
 *             warm-up, or the sample space is already full): sources
 *             may tick concurrently.
 *   All     - the remaining quota covers every possible creation this
 *             cycle, so every tryTag() returns true whatever the call
 *             order: sources may tick concurrently.
 *   Ordered - the quota runs out mid-cycle and the serial tick order
 *             (node index) decides which packets are tagged: the
 *             stepper serializes the source phase for this cycle.
 *
 * Two more sums -- creation cycles of tagged packets and ejection
 * cycles of received ones -- give latencySumLowerBound(), which lets a
 * saturation probe stop as soon as its verdict is certain.
 */

#ifndef PDR_TRAFFIC_MEASURE_HH
#define PDR_TRAFFIC_MEASURE_HH

#include <atomic>

#include "sim/types.hh"

namespace pdr::traffic {

/** Shared controller tracking the sample space across sources/sinks. */
class MeasureController
{
  public:
    MeasureController(sim::Cycle warmup, std::uint64_t sample_packets);

    /**
     * A source is creating a packet at `now`; returns true if the packet
     * belongs to the sample space (tagged for measurement).
     */
    bool tryTag(sim::Cycle now);

    /** A tagged packet was fully received at cycle `now`. */
    void
    taggedReceived(sim::Cycle now)
    {
        received_.fetch_add(1, std::memory_order_relaxed);
        ejectSum_.fetch_add(now, std::memory_order_relaxed);
    }

    /**
     * A lower bound on the sample's final latency sum, read between
     * cycles with the clock at `now` (every cycle before `now` has
     * run): the received packets' exact latencies, plus now - ctime
     * for each tagged packet still in flight -- it cannot eject before
     * `now`.  Untagged sample slots count as zero.  Never decreases as
     * the run advances, and equals the final sum once done().
     */
    std::uint64_t
    latencySumLowerBound(sim::Cycle now) const
    {
        std::uint64_t in_flight = tagged() - received();
        return ejectSum_.load(std::memory_order_relaxed) +
               in_flight * now -
               ctimeSum_.load(std::memory_order_relaxed);
    }

    /** All tagged packets created and received. */
    bool
    done() const
    {
        return tagged() == sample_ && received() == tagged();
    }

    /** Concurrency class of the source phase at cycle `now`, given at
     *  most `max_tags` tryTag() calls can happen this cycle. */
    enum class TagMode { None, All, Ordered };
    TagMode
    tagMode(sim::Cycle now, std::uint64_t max_tags) const
    {
        std::uint64_t t = tagged();
        if (now < warmup_ || t >= sample_)
            return TagMode::None;
        if (sample_ - t >= max_tags)
            return TagMode::All;
        return TagMode::Ordered;
    }

    /**
     * The sample space is fully tagged: every later tryTag() returns
     * false without mutating anything.  Fullness is monotone, so a
     * true result stays true forever -- a source that reads full may
     * defer its generation draws (traffic::Source's lazy catch-up)
     * without affecting tagging order.
     */
    bool quotaFull() const { return tagged() >= sample_; }

    sim::Cycle warmup() const { return warmup_; }
    std::uint64_t
    tagged() const
    {
        return tagged_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    received() const
    {
        return received_.load(std::memory_order_relaxed);
    }
    std::uint64_t sampleSize() const { return sample_; }

  private:
    sim::Cycle warmup_;
    std::uint64_t sample_;
    std::atomic<std::uint64_t> tagged_{0};
    std::atomic<std::uint64_t> received_{0};
    std::atomic<std::uint64_t> ctimeSum_{0};    //!< Over tagged packets.
    std::atomic<std::uint64_t> ejectSum_{0};    //!< Over received ones.
};

} // namespace pdr::traffic

#endif // PDR_TRAFFIC_MEASURE_HH
