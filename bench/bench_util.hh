/**
 * @file
 * Shared helpers for the reproduction benches: the banner, and loading
 * the shipped experiment files.
 *
 * Every bench prints the same rows/series as the corresponding table or
 * figure of Peh & Dally (HPCA 2001), with the paper's reported values
 * alongside where they are quoted in the text.  The latency-load
 * figures have no bench: `pdr sweep --file experiments/<fig>.exp` runs
 * them, and each file's header quotes the paper's values.
 *
 * Environment:
 *   PDR_EXPERIMENTS_DIR  where the .exp files live (default: the
 *                        source tree's experiments/ directory)
 *   PDR_FAST, PDR_PACKETS, PDR_WARMUP, PDR_MAX_CYCLES  folded into a
 *                        loaded experiment exactly as `pdr sweep` does
 */

#ifndef PDR_BENCH_UTIL_HH
#define PDR_BENCH_UTIL_HH

#include <string>

#include "api/params.hh"

namespace pdr::bench {

/** Print a bench banner. */
void banner(const std::string &title, const std::string &what);

/**
 * Path of a shipped experiment file: $PDR_EXPERIMENTS_DIR (if set) or
 * the source tree's experiments/ directory compiled into the bench.
 */
std::string experimentFile(const std::string &name);

/** Load a shipped experiment and fold in the environment
 *  (PDR_FAST, PDR_PACKETS, ...), exactly as `pdr sweep` does. */
api::Experiment loadExperiment(const std::string &name);

} // namespace pdr::bench

#endif // PDR_BENCH_UTIL_HH
