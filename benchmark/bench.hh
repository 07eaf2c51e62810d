/**
 * @file
 * Shared declarations of pdr_bench (pdr_bench.cc runs the
 * end-to-end tier, layers.cc the traced per-layer tier).
 */

#ifndef PDR_BENCHMARK_BENCH_HH
#define PDR_BENCHMARK_BENCH_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "api/params.hh"
#include "exec/sweep.hh"

namespace pdrbench {

/**
 * One benchmark workload.  The simulated configuration lives in
 * benchmark/workloads/<name>.exp (a frozen copy, so edits under
 * experiments/ cannot change what is measured); this row adds what an
 * experiment file cannot say: how the run is driven.
 */
struct Workload
{
    const char *name;
    /** Run api::findSaturation on the base config instead of a sweep. */
    bool findSat;
    /** Sweep-pool clients T (par.workers W is in the .exp file). */
    int threads;
    /** Curve whose config the traced tiers use ("" = base config). */
    const char *curve;
    /** Traced-run loads: lowest (`.lo`) and saturated (`.sat`). */
    double lo;
    double sat;
};

/** findSaturation arguments of the findsat16_par workload. */
constexpr double kLatencyLimit = 4.0;
constexpr double kTolerance = 0.02;

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Shortened segments and a single pass (CI smoke). */
    bool smoke = false;
    /** Write references for this seed instead of checking them. */
    bool bless = false;
    std::string rev = "unknown";
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Metrics plus the operation ledger of one run. */
struct Outcome
{
    /** The BENCHMARK.json metrics of this tier (the JSON line). */
    std::vector<Metric> metrics;
    /** Printed beside them but not in the JSON line: values that do
     *  not exist on every workload, or that can be zero. */
    std::vector<Metric> extras;
    /** Checks made, and checks failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void extra(const std::string &name, double value,
               const std::string &unit)
    {
        extras.push_back({name, value, unit});
    }

    /** Count one checked operation; report it on stderr if it
     *  failed.  Returns ok. */
    bool check(bool ok, const std::string &what);
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

/** Contents of `path`; empty when it does not exist. */
std::string readFile(const std::string &path);
void writeFile(const std::string &path, const std::string &text);

/** Reference output of the workload for `seed`. */
std::string referencePath(const Options &opt, std::uint64_t seed,
                          const char *ext);

/** The workload's frozen experiment. */
pdr::api::Experiment loadExperiment(const Options &opt);

/**
 * The config of the workload's representative curve at `load`, seeded
 * from the run's seed: the subject of the api / par / net / router /
 * overhead tiers.
 */
pdr::api::SimConfig representative(const Options &opt,
                                    const pdr::api::Experiment &exp,
                                    double load);

/**
 * A point below saturation: not saturated() (drained, accepted >= 0.9 x
 * offered) and average latency within kLatencyLimit x `zero_load`.
 */
bool belowSaturation(const pdr::api::SimResults &r, double zero_load);

/** The points of one curve (labels `<curve>@<load>`), in load order. */
std::vector<const pdr::exec::PointResult *>
curvePoints(const pdr::exec::SweepResults &res, const std::string &curve);

/** Every router counter equal. */
bool sameStats(const pdr::router::RouterStats &a,
               const pdr::router::RouterStats &b);

/**
 * In-memory span recorder.  Spans form a tree through explicit parent
 * ids, so a span started on a pool worker can hang under the sweep that
 * submitted it.  Written once, at exit, as Chrome trace-event JSON.
 */
class Tracer
{
  public:
    using Id = std::int64_t;
    static constexpr Id kRoot = -1;

    Tracer() : origin_(Clock::now()) {}

    /** Seconds since the tracer was created. */
    double now() const { return secondsSince(origin_); }

    /** Open a span now; close it with end(). */
    Id begin(std::string name, const char *layer, Id parent,
             int arg = -1);
    void end(Id id);

    /** Record an already finished span (any thread). */
    Id add(std::string name, const char *layer, Id parent, double t0,
           double t1, int arg = -1);

    /** Span duration minus the part its children cover, summed per
     *  layer, in seconds; layers in first-seen order. */
    std::vector<std::pair<std::string, double>> selfTimes() const;

    void writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        const char *layer;
        Id parent;
        double t0, t1;
        int tid;
        int arg;
    };

    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** The traced per-layer run (layers.cc). */
Outcome runTraced(const Options &opt);

} // namespace pdrbench

#endif // PDR_BENCHMARK_BENCH_HH
