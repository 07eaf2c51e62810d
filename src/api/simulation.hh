/**
 * @file
 * High-level simulation facade: configure a network + workload, run the
 * paper's measurement protocol, get a result row.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   pdr::api::SimConfig cfg;
 *   cfg.net.router.model = pdr::router::RouterModel::SpecVirtualChannel;
 *   cfg.net.router.numVcs = 2;
 *   cfg.net.router.bufDepth = 4;
 *   cfg.net.setOfferedFraction(0.4);
 *   auto res = pdr::api::runSimulation(cfg);
 *   // res.avgLatency, res.acceptedFraction, ...
 */

#ifndef PDR_API_SIMULATION_HH
#define PDR_API_SIMULATION_HH

#include <memory>
#include <string>

#include "net/network.hh"
#include "prof/config.hh"
#include "telem/config.hh"

namespace pdr::api {

/** Simulation configuration: the network plus protocol limits. */
struct SimConfig
{
    net::NetworkConfig net;
    /** Hard cap on simulated cycles (saturated runs never drain). */
    sim::Cycle maxCycles = 300000;
    /**
     * Measurement mode: "sample" runs the paper's warm-up + sample +
     * drain protocol; "fixed" runs exactly `horizon` cycles and
     * reports steady-state rates (e.g. the Figure-16 saturated-stream
     * measurement).
     */
    std::string mode = "sample";
    sim::Cycle horizon = 20000;     //!< Cycles run in "fixed" mode.

    /**
     * Intra-network worker threads (par.workers): the simulation's
     * node set is partitioned across this many workers with a
     * per-cycle barrier (src/par/).  Results are bit-identical for
     * any value.  1 = classic serial stepping; 0 = PDR_PAR_WORKERS or
     * 1.  Requests are clamped to the topology's plane count and, when
     * running inside a sweep pool, to the per-worker hardware share.
     */
    int parWorkers = 1;
    /** Partitioning scheme (par.scheme): "planes" or "weighted". */
    std::string parScheme = "planes";

    /**
     * Observability (telem.* keys): windowed counter streaming and
     * trace emission.  Strictly read-only with respect to the
     * simulation -- results and goldens are bit-identical whether
     * telemetry is on or off, for any worker count.
     */
    telem::Config telem;

    /**
     * Engine profiling (prof.enable): per-worker phase wall time and
     * per-router tick weights, exported through the telemetry streams
     * and summarized by `pdr profile`.  Same read-only contract as
     * telem: results are bit-identical on or off, at any worker
     * count (docs/OBSERVABILITY.md).
     */
    prof::Config prof;

    /**
     * Scale the sample-space size (and warm-up) from the environment:
     * PDR_PACKETS overrides samplePackets (paper value 100000; default
     * here 30000 to keep the full bench suite minutes-scale), and
     * PDR_WARMUP / PDR_MAX_CYCLES override warm-up and the cycle cap.
     * Unset or empty means no override; any other value must be a
     * positive integer, else std::invalid_argument names the variable.
     */
    void applyEnvDefaults();
};

inline bool
operator==(const SimConfig &a, const SimConfig &b)
{
    return a.net == b.net && a.maxCycles == b.maxCycles &&
           a.mode == b.mode && a.horizon == b.horizon &&
           a.parWorkers == b.parWorkers && a.parScheme == b.parScheme &&
           a.telem == b.telem && a.prof == b.prof;
}

inline bool
operator!=(const SimConfig &a, const SimConfig &b)
{
    return !(a == b);
}

/** One simulation outcome. */
struct SimResults
{
    double offeredFraction = 0.0;   //!< Offered load / capacity.
    double acceptedFraction = 0.0;  //!< Delivered load / capacity.
    double avgLatency = 0.0;        //!< Mean packet latency (cycles).
    double p99Latency = 0.0;        //!< 99th percentile (cycles).
    std::uint64_t sampleReceived = 0;
    std::uint64_t sampleSize = 0;
    bool drained = false;           //!< Sample fully received in time.
    sim::Cycle cycles = 0;          //!< Total simulated cycles.
    router::RouterStats routers;    //!< Aggregated router counters.
    telem::Summary telem;           //!< Emission totals (zero if off).
    /** Engine profile (null unless prof.enable); shared so result
     *  rows stay cheap to copy through the sweep machinery. */
    std::shared_ptr<const prof::Capture> prof;

    /**
     * Saturation heuristic: the run is considered saturated when the
     * sample could not drain or accepted lags offered by > 10 %.
     */
    bool saturated() const;
};

/** Run warm-up + sample + drain; aggregate results. */
SimResults runSimulation(const SimConfig &cfg);

/**
 * Estimate saturation throughput (fraction of capacity): the largest
 * load that still drains with average latency below `latency_limit`
 * times the zero-load latency.
 *
 * The zero-load probe (2 % load) also decides the lower bracket end;
 * the upper one starts at min(1, 1 / capacity), the most a node can
 * inject.  Each round then splits the bracket with seven evenly spaced
 * candidate loads and narrows it to the interval around the first
 * one that fails.  All probes, the zero-load one included, run on one
 * exec::ThreadPool (PDR_THREADS wide): candidates are submitted lowest
 * load first, and one that starts after a lower candidate failed
 * returns without simulating.  The candidates below the first failure
 * pass and the failure itself always runs, so the estimate is
 * independent of the thread count and schedule, and stays within
 * `tolerance` of what serial bisection returns.
 *
 * A candidate probe stops early once a lower bound on its sample's
 * latency sum proves the mean will exceed the limit
 * (MeasureController::latencySumLowerBound); it then fails exactly as
 * the full run would, so the estimate is bit-identical to running
 * every probe it reads to completion (docs/ARCHITECTURE.md,
 * "Saturation search").  runSimulation() itself never stops early.
 *
 * Returns 0 when the zero-load probe does not drain; throws
 * std::invalid_argument when sim.sample_packets is 0.
 */
double findSaturation(SimConfig cfg, double latency_limit = 4.0,
                      double tolerance = 0.01);

} // namespace pdr::api

#endif // PDR_API_SIMULATION_HH
