/**
 * @file
 * Parallel sweep-execution engine.
 *
 * A sweep is an ordered list of simulation points (label + SimConfig).
 * SweepRunner fans the points across a fixed ThreadPool and returns
 * SweepResults in input order, with per-point wall-clock timing and
 * error capture (a throwing point is recorded as failed; it neither
 * kills a worker nor hangs the pool).
 *
 * Determinism: SweepRunner::run is the one place that numbers and
 * seeds points.  Point i of a run gets grid index firstIndex + i and
 * the RNG seed pointSeed(baseSeed, firstIndex + i), and every
 * simulation object down the stack (Network, Source, ...) is
 * per-instance state -- there is no global or static mutable state in
 * the simulator (src/common/rng.cc holds the audit's canonical mixer).
 * Results are therefore bit-identical for any thread count or
 * scheduling order, and a slice of a grid run with its own firstIndex
 * reproduces the same rows of the whole-grid run.
 *
 * Typical use (points usually come from api::Experiment::points()):
 *
 *   auto exp = api::Experiment::load("experiments/fig18.exp");
 *   auto results = exec::SweepRunner().run(exp.points());
 *   results.toTable().writeCsv(file);
 */

#ifndef PDR_EXEC_SWEEP_HH
#define PDR_EXEC_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "api/simulation.hh"
#include "stats/export.hh"

namespace pdr::exec {

/** One unit of sweep work: a labelled simulation configuration. */
struct SweepPoint
{
    std::string label;
    api::SimConfig cfg;
};

/** Outcome of one sweep point. */
struct PointResult
{
    std::string label;
    std::size_t index = 0;     //!< Grid index (firstIndex + position).
    api::SimConfig cfg;        //!< As run (including the derived seed).
    api::SimResults res;       //!< Valid only when ok.
    double wallMs = 0.0;       //!< Wall-clock time of this point.
    bool ok = false;
    std::string error;         //!< Exception message when !ok.
};

/** Ordered results of a sweep run. */
struct SweepResults
{
    std::vector<PointResult> points;    //!< Input order.
    double wallMs = 0.0;                //!< Whole-sweep wall clock.
    int threads = 1;                    //!< Pool size used.

    std::size_t failures() const;

    /** Throw std::runtime_error on the first failed point, if any. */
    void throwIfFailed() const;

    /**
     * Render as a table (one row per point) for CSV/JSON export.  The
     * table carries only deterministic columns (no wall-clock), so two
     * exports of the same sweep are bit-identical regardless of thread
     * count -- `diff` is a valid reproducibility check.
     */
    stats::Table toTable() const;

    /**
     * Per-point telemetry emission summaries (windows, flits, packets,
     * peak window rate, trace events), one row per point.  All zeros
     * for points run with telemetry off; like toTable(), carries only
     * deterministic columns, so exports are thread-count-independent.
     */
    stats::Table telemTable() const;
};

/** Execution options for a sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = PDR_THREADS env or hardware concurrency. */
    int threads = 0;
    /** Base seed each point's seed is derived from. */
    std::uint64_t baseSeed = 1;
    /**
     * Grid index of the first point: point i runs as grid point
     * firstIndex + i, index and seed alike.  Nonzero when the points
     * are one slice of a larger grid (`pdr sweep --slice`), so shard
     * rows match the whole-grid run's and `pdr merge` can stitch them.
     */
    std::size_t firstIndex = 0;
    /**
     * Progress hook, called after each point completes with (done,
     * total, pointWallMs).  Calls are serialized under an internal
     * mutex but arrive from pool worker threads in completion order
     * (nondeterministic); use for live reporting only, never to
     * influence results.  Null = silent.
     */
    std::function<void(std::size_t done, std::size_t total,
                       double pointWallMs)>
        onPointDone;
};

/**
 * Fans sweep points across a fixed thread pool, heaviest (highest
 * offered fraction) first: saturated points run much longer than
 * low-load ones, so starting them early shortens the sweep's critical
 * path.  Pure scheduling -- results come back in input order.
 */
class SweepRunner
{
  public:
    /** Point evaluator; the default is api::runSimulation. */
    using RunFn = std::function<api::SimResults(const api::SimConfig &)>;

    explicit SweepRunner(SweepOptions opts = {});

    /** Run all points through api::runSimulation. */
    SweepResults run(const std::vector<SweepPoint> &points) const;

    /** Run all points through a custom evaluator. */
    SweepResults run(const std::vector<SweepPoint> &points,
                     const RunFn &fn) const;

    const SweepOptions &options() const { return opts_; }

    /** The seed point `index` receives under base seed `base`. */
    static std::uint64_t pointSeed(std::uint64_t base, std::size_t index);

  private:
    SweepOptions opts_;
};

} // namespace pdr::exec

#endif // PDR_EXEC_SWEEP_HH
