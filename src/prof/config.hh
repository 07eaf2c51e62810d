/**
 * @file
 * Engine-profiler configuration (the `prof.enable` key) and
 * the capture it leaves behind.
 *
 * `src/prof/` is to the engine (`src/par/` + the stepping loops) what
 * `src/telem/` is to the Network: an observability layer under the
 * same hard contract -- strictly read-only, results and goldens
 * bit-identical with profiling on or off, at any worker count.  Two
 * signals are collected per sampling epoch:
 *
 *  - per-worker *phase wall time* (tick / drain / barrier-wait),
 *    host-clock readings that are inherently nondeterministic and
 *    therefore confined to reporting (lint rule PDR-OBS-WALLCLOCK);
 *  - per-router *tick weight* (cycles-ticked counts), which depends
 *    only on the wake-table schedule and is therefore deterministic
 *    and byte-identical across worker counts -- the online load
 *    signal an adaptive repartitioner consumes (ROADMAP.md,
 *    adaptive repartitioning).
 */

#ifndef PDR_PROF_CONFIG_HH
#define PDR_PROF_CONFIG_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace pdr::prof {

/** Engine-profiler switch (`prof.enable`; docs/OBSERVABILITY.md). */
struct Config
{
    /**
     * Master switch (prof.enable).  When on, the stepper timestamps
     * worker phase transitions and the network counts router ticks;
     * epochs piggyback on the telemetry sampling cadence
     * (telem.interval), even when the telemetry sampler itself is
     * off.  Off by default: no marks, no counts, zero tick-path cost.
     */
    bool enable = false;
};

bool operator==(const Config &a, const Config &b);
inline bool
operator!=(const Config &a, const Config &b)
{
    return !(a == b);
}

/** One profiling window (deltas since the previous epoch). */
struct Epoch
{
    sim::Cycle cycle = 0;   //!< Window end (exclusive boundary).
    sim::Cycle window = 0;  //!< Window length in cycles.

    /** Per-worker phase wall time in the window, microseconds.
     *  tick + drain + barrier + idle sums to the worker's share of
     *  the window's wall time exactly (open phases are prorated). */
    std::vector<std::uint64_t> tickUs;
    std::vector<std::uint64_t> drainUs;
    std::vector<std::uint64_t> barrierUs;
    std::vector<std::uint64_t> idleUs;

    /** Per-router cycles ticked in the window (index order).
     *  Deterministic: identical across runs and worker counts. */
    std::vector<std::uint64_t> weights;
};

/** A whole run's profile (SimResults::prof; `pdr profile` input). */
struct Capture
{
    int workers = 0;        //!< Gang size the run executed with.
    sim::Cycle cycles = 0;  //!< Final profiled cycle.
    std::vector<Epoch> epochs;
    /** End-of-run per-router tick totals (== sum of epoch weights). */
    std::vector<std::uint64_t> weights;
};

} // namespace pdr::prof

#endif // PDR_PROF_CONFIG_HH
