/**
 * @file
 * The engine profiler: per-worker phase clocks and per-router
 * tick-weight shards.
 *
 * A Profiler attaches to one Network + ParallelStepper pair and
 * records two signals, sharded so the hot path never shares a cache
 * line or touches an atomic:
 *
 *  - mark(w, phase): worker `w` timestamps a phase transition into
 *    its own cache-line-aligned shard (two wall-clock reads per cycle
 *    on the serial path, four per worker on the parallel path -- only
 *    when a profiler is attached; pdr-bench's prof.overhead_pct
 *    measures the cost).
 *  - per-router tick counts: the Network increments a plain counter
 *    whenever a router actually ticks.  Workers own disjoint router
 *    ranges, so the increments are unshared; the tick schedule is a
 *    pure function of the wake table, so the counts are deterministic
 *    and byte-identical across worker counts.
 *
 * sampleEpoch() closes a window on worker 0 at a safe point (the gang
 * parked at the cycle-start barrier: no shard is being written, and
 * the barrier's release/acquire ordering publishes every prior mark).
 * Open phases are prorated to the sampling instant, so a window's
 * tick + drain + barrier + idle sums to its wall time exactly --
 * which is what lets the trace writer nest phase spans inside window
 * spans without overlap.
 *
 * Read-only contract: the profiler never writes simulation state.
 * Goldens are bit-identical with prof.enable on or off at any worker
 * count (tests/prof/, CI golden gates).  Wall-clock reads live only
 * in profiler.cc under justified PDR-OBS-WALLCLOCK suppressions.
 */

#ifndef PDR_PROF_PROFILER_HH
#define PDR_PROF_PROFILER_HH

#include <cstdint>
#include <vector>

#include "prof/config.hh"
#include "sim/types.hh"

namespace pdr::net {
class Network;
} // namespace pdr::net

namespace pdr::prof {

/** Collects phase wall time and tick weights for one run. */
class Profiler
{
  public:
    /** What a worker is doing right now (one open phase per shard;
     *  Idle covers the stretches outside the stepper entirely). */
    enum class Phase : int { Idle = 0, Tick = 1, Drain = 2,
                             Barrier = 3 };

    /**
     * Attach to `net` with a gang of `workers`.  Registers the
     * tick-weight hook on the network; construct after the stepper
     * and destroy before it (the stepper holds a raw pointer via
     * attachProfiler()).
     */
    Profiler(net::Network &net, int workers);

    /** Detaches the network hook. */
    ~Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /**
     * Worker `w` enters `p`: close the open phase interval into the
     * shard's accumulator and start the new one.  Called only from
     * worker `w`'s own thread; wait-free, no atomics.
     */
    void mark(int w, Phase p);

    /**
     * Close the window ending at cycle `at` and append it to the
     * capture; returns the new epoch.  Worker-0 only, at a safe
     * point: with the gang parked at the cycle-start barrier the
     * shards are quiescent and every prior mark is published.
     */
    const Epoch &sampleEpoch(sim::Cycle at);

    /**
     * Emit the final partial window ending at `end` (idempotent).
     * Returns the epoch, or nullptr if no cycles remain unprofiled.
     */
    const Epoch *finish(sim::Cycle end);

    int workers() const { return W_; }
    const Capture &capture() const { return cap_; }
    /** Move the capture out (for SimResults); leaves *this empty. */
    Capture takeCapture() { return std::move(cap_); }

  private:
    static constexpr int kPhases = 4;

    /** One worker's clock state; cache-line aligned so neighbouring
     *  workers never share a line. */
    struct alignas(64) Shard
    {
        Phase open = Phase::Idle;
        std::uint64_t openSince = 0;      //!< ns, profiler epoch.
        std::uint64_t accNs[kPhases] = {};
    };

    /** Monotonic host nanoseconds since construction (wall clock;
     *  reporting only -- see PDR-OBS-WALLCLOCK). */
    std::uint64_t nowNs() const;

    net::Network &net_;
    int W_;
    std::vector<Shard> shards_;
    /** Per-router cycles-ticked totals, incremented by the network's
     *  tick loop while the hook is attached. */
    std::vector<std::uint64_t> weights_;

    /** Snapshot state of the previous epoch (worker 0 only). */
    std::vector<std::uint64_t> lastWeights_;
    std::vector<std::uint64_t> lastEffNs_;  //!< W_ * kPhases, flat.
    sim::Cycle lastCycle_ = 0;

    Capture cap_;
    bool finished_ = false;
};

} // namespace pdr::prof

#endif // PDR_PROF_PROFILER_HH
