/**
 * @file
 * Offline profile analysis: turn a prof::Capture into the `pdr
 * profile` report, and parse a previously written NDJSON stream back
 * into a Capture (`pdr profile --from FILE`).
 *
 * The report mixes two kinds of data with different guarantees:
 * per-worker utilization comes from host wall clocks and varies run
 * to run, while everything derived from tick weights (hottest
 * routers, partition shares, the imbalance ratio and the weighted-cut
 * verdict) is deterministic -- identical across runs and execution
 * worker counts, because the tick schedule is a pure function of the
 * wake table and the verdict is computed over four fixed analysis
 * blocks, not par.workers.
 */

#ifndef PDR_PROF_REPORT_HH
#define PDR_PROF_REPORT_HH

#include <iosfwd>
#include <string>

#include "prof/config.hh"
#include "topo/lattice.hh"

namespace pdr::prof {

/**
 * Tick-weight imbalance of a plane-aligned split into (up to)
 * `workers` blocks: max block weight / mean block weight.  1.0 is a
 * perfect split; W means one block carries everything.  Returns 0
 * when no router ever ticked.  Throws std::invalid_argument unless
 * there is exactly one weight per router of `lat`.
 */
double weightImbalance(const std::vector<std::uint64_t> &weights,
                       const topo::Lattice &lat, int workers);

/** Render the full `pdr profile` report (see file comment); throws
 *  std::invalid_argument when the capture does not fit `lat`. */
std::string buildReport(const Capture &cap, const topo::Lattice &lat);

/**
 * Rebuild a Capture from an NDJSON stream containing worker_window /
 * weight_heatmap records (other record types are skipped).  Throws
 * std::invalid_argument, naming the line, on an unclosed record, a
 * number that does not parse whole, `workers` outside [1, 512] or
 * unlike earlier lines, a phase array whose length is not `workers`,
 * or weight arrays of unequal length; std::runtime_error when no
 * profiler records are present.
 */
Capture parseStream(std::istream &in);

} // namespace pdr::prof

#endif // PDR_PROF_REPORT_HH
