/**
 * @file
 * Telemetry configuration (the `telem.*` parameter group) and the
 * per-run summary the sampler leaves behind.
 *
 * Everything configured here is observational.  The hard contract --
 * shared with the auditor and the lint rules that enforce it -- is
 * that telemetry is read-only with respect to simulation state: RNG
 * streams, wake tables, flit queues and result CSVs are bit-identical
 * whether telemetry is on or off, at any worker count.  The only
 * wall-clock reads live in the host-profile trace stream (see
 * docs/OBSERVABILITY.md and lint rule PDR-OBS-WALLCLOCK).
 */

#ifndef PDR_TELEM_CONFIG_HH
#define PDR_TELEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace pdr::telem {

/** Telemetry switches (`telem.*` keys; docs/OBSERVABILITY.md). */
struct Config
{
    /**
     * Master switch for the windowed stream sampler: every `interval`
     * cycles a cycle-indexed record of windowed throughput, latency
     * percentiles, per-router activity and flits in flight is
     * emitted, plus a per-router traffic heatmap at teardown.  Off by
     * default; when off, no sampling epochs run at all.
     */
    bool enable = false;

    /** Sampling window length in cycles (telem.interval). */
    sim::Cycle interval = 5000;

    /**
     * Stream destination (telem.out): a file path, "-" for stdout, or
     * empty to sample without writing (the summary and the read-only
     * contract are exercised either way; used by the overhead A/B and
     * the bit-identity tests).
     */
    std::string out;

    /**
     * Chrome trace-event JSON destination (telem.trace); empty
     * disables tracing.  Independent of `enable`: the trace records
     * sim-time spans (sampled packet lifecycles, router credit-stall
     * intervals) and the host-wall-clock profile stream.
     */
    std::string trace;

    /** Packet-lifecycle sampling stride: packets whose id is a
     *  multiple of this are traced (telem.trace_packets). */
    std::uint64_t tracePackets = 64;

    /** Any telemetry output requested (sampler or trace). */
    bool active() const { return enable || !trace.empty(); }

    /** Throws std::invalid_argument on a bad combination. */
    void validate() const;
};

bool operator==(const Config &a, const Config &b);
inline bool
operator!=(const Config &a, const Config &b)
{
    return !(a == b);
}

/** What one run's telemetry amounted to (SimResults::telem; sweeps
 *  aggregate these into the per-point summary table). */
struct Summary
{
    std::uint64_t windows = 0;      //!< Window records emitted.
    std::uint64_t flits = 0;        //!< Flits delivered over the run.
    std::uint64_t packets = 0;      //!< Packets delivered over the run.
    /** Max windowed delivery rate seen (flits/node/cycle). */
    double peakWindowRate = 0.0;
    std::uint64_t traceEvents = 0;  //!< Trace events written (all pids).
};

} // namespace pdr::telem

#endif // PDR_TELEM_CONFIG_HH
