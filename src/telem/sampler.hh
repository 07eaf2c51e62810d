/**
 * @file
 * Windowed streaming sampler: every telem.interval cycles, one
 * cycle-indexed record of what the network did in that window --
 * delivered throughput, latency percentiles (LatencyStats window
 * deltas via its merge algebra), per-router activity deltas from the
 * counter registry, and the flits in flight -- plus, at teardown, a
 * per-router traffic heatmap (the repartitioner's future input) and a
 * run summary record.
 *
 * Records are NDJSON (one JSON object per line; "window" records
 * during the run, "router" heatmap rows and one "summary" at the
 * end).  Sampling happens at safe points only -- serial steps or the
 * post-drain barrier with the gang parked, on the stepping thread --
 * and reads simulation state without mutating it.
 * All emitted values are pure functions of simulation state, so the
 * stream is byte-identical across worker counts.
 */

#ifndef PDR_TELEM_SAMPLER_HH
#define PDR_TELEM_SAMPLER_HH

#include <ostream>

#include "stats/latency.hh"
#include "telem/config.hh"
#include "telem/counters.hh"

namespace pdr::net {
class Network;
} // namespace pdr::net

namespace pdr::telem {

class TraceWriter;

/** The windowed NDJSON record stream; see file comment. */
class StreamSampler
{
  public:
    /**
     * Baselines the window state at net.now(); the owner ends each
     * window (every telem.interval cycles) with sampleWindow().  `out`
     * may be nullptr: records are then computed (and the summary
     * filled) but not written, which is what the overhead A/B and the
     * bit-identity tests run.
     */
    StreamSampler(const net::Network &net, std::ostream *out);

    /**
     * Emit the record of the window ending at cycle `at`.  `at` must
     * be the current cycle (counters are flushed through it) and past
     * the previous window's end.  Also drops per-window counter
     * tracks on `trace` (nullptr = none).
     */
    void sampleWindow(sim::Cycle at, TraceWriter *trace);

    /** Final partial window (if any), the per-router heatmap and the
     *  summary record, at end-of-run cycle `end`. */
    void finish(sim::Cycle end, TraceWriter *trace);

    const Summary &summary() const { return summary_; }

  private:
    void emitWindow(sim::Cycle at, TraceWriter *trace);
    void emitHeatmap(sim::Cycle end);

    const net::Network &net_;
    std::ostream *out_;

    sim::Cycle windowEnd_;          //!< End of the last emitted window.
    CounterSnapshot prevSnap_;      //!< Counter state at windowEnd_.
    stats::LatencyStats prevLat_;   //!< Latency state at windowEnd_.
    std::uint64_t prevFlits_ = 0;   //!< Delivered flits at windowEnd_.
    std::uint64_t prevPackets_ = 0;

    Summary summary_;
};

} // namespace pdr::telem

#endif // PDR_TELEM_SAMPLER_HH
