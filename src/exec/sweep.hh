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
 * Determinism: each point gets an RNG seed derived from (base seed,
 * point index) via pdr::deriveSeed, and every simulation object down
 * the stack (Network, Source, ...) is per-instance state -- there is no
 * global or static mutable state in the simulator (src/common/rng.cc
 * holds the audit's canonical mixer).  Results are therefore
 * bit-identical for any thread count or scheduling order.
 *
 * SweepBuilder expands the cross product of offered-load grids, router
 * models, traffic patterns and topologies into a point list, in the
 * deterministic order loads x (models x patterns x topologies).
 *
 * Typical use (also exposed as pdr::api::runSweep):
 *
 *   auto points = exec::SweepBuilder(base)
 *                     .model("specVC", ...)
 *                     .loads({0.1, 0.2, 0.3})
 *                     .build();
 *   auto results = exec::SweepRunner().run(points);
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
    /**
     * Global index of points[0] in the full grid this run is a slice
     * of (0 for a whole-grid run).  toTable() adds it to the `index`
     * column so shard CSVs carry their grid position and `pdr merge`
     * can stitch them back together.
     */
    std::size_t indexOffset = 0;

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
     * Derive per-point seeds from (baseSeed, index).  Off, every point
     * keeps the seed already in its SimConfig (e.g. to reproduce a
     * legacy serial sweep that reused one seed).
     */
    bool deriveSeeds = true;
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

/** Expands parameter axes into a deterministic sweep point list. */
class SweepBuilder
{
  public:
    explicit SweepBuilder(api::SimConfig base);

    /** Add a router-model variant (label + model/vcs/buf). */
    SweepBuilder &model(const std::string &label,
                        router::RouterModel model, int vcs, int buf,
                        bool single_cycle = false);

    /** Add a pre-configured variant (arbitrary config overrides). */
    SweepBuilder &variant(const std::string &label,
                          const api::SimConfig &cfg);

    /** Sweep offered load over these fractions of capacity. */
    SweepBuilder &loads(std::vector<double> fractions);

    /** Add a traffic-pattern axis value (PatternRegistry name). */
    SweepBuilder &pattern(const std::string &name);

    /** Add a topology axis value (radix, TopologyRegistry name). */
    SweepBuilder &topology(int k, const std::string &topo);

    /**
     * Cross product of the configured axes, ordered loads-major then
     * variants x patterns x topologies.  Axes never touched keep the
     * base config's value (a single implicit entry).
     */
    std::vector<SweepPoint> build() const;

  private:
    api::SimConfig base_;
    std::vector<SweepPoint> variants_;
    std::vector<double> loads_;
    std::vector<std::string> patterns_;
    std::vector<std::pair<int, std::string>> topologies_;
};

} // namespace pdr::exec

#endif // PDR_EXEC_SWEEP_HH
