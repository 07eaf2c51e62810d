/**
 * @file
 * Deterministic multi-worker execution of one Network.
 *
 * A ParallelStepper owns a gang of worker threads (the calling thread
 * is worker 0) and advances the attached Network one cycle per step()
 * with the node set split across the gang by a par::Partitioner.  Each
 * cycle runs in two barrier-separated phases:
 *
 *   A  every worker ticks its own sources, routers and sinks (in index
 *      order within the slice) through the Network's partition-sliced
 *      entry points, using -- and updating -- only its slice of the
 *      wake table.  Channels whose producer and consumer live in
 *      different blocks are in staged mode: pushes buffer privately in
 *      the channel (single producer), so no queue is touched by two
 *      workers.
 *   B  every worker drains the staged buffers of the cross-boundary
 *      channels *it consumes*, merging items and applying the deferred
 *      wake-table updates.
 *
 * Determinism: components only communicate through >= 1-cycle
 * channels, so intra-cycle order is immaterial; the deferred wake
 * update is min(), which reproduces the serial wake table exactly;
 * flits cross a partition by value inside the staged channel, so no
 * flit storage is shared between workers; per-sink statistics and
 * delivery logs merge in node order at readout; and the one
 * order-sensitive piece of shared state -- the measurement
 * controller's sample-space tagging -- is classified per cycle by
 * MeasureController::tagMode(): on the rare boundary cycle where the
 * quota runs out mid-cycle, the source phase runs serially in node
 * order before the gang is released.  Results are therefore
 * bit-identical to Network::step() for any worker count, which
 * tests/net/test_lockstep.cc and tests/par/ enforce.
 *
 * Between cycles the gang is parked at the cycle-start barrier, after
 * the drain: the wake table is globally consistent and staging is
 * empty.  Everything that reads the whole network runs there, on
 * worker 0 (the calling thread): stepTo()'s clock jumps and observer
 * epochs, through Network::drive like any serial loop, and with
 * auditing on the per-cycle checks of Network::auditCycle().  The
 * next barrier release publishes what they did to the gang, so every
 * worker count takes the same jumps and runs the same checks as a
 * serial run.
 *
 * Worker-count policy (resolveWorkers): an explicit request wins, then
 * the PDR_PAR_WORKERS environment variable, then 1 (serial).  When the
 * caller is itself a sweep-pool worker (nested parallelism), the
 * request is clamped to hardware_concurrency / pool size so sweep- and
 * network-level workers share one machine budget; since results never
 * depend on the worker count, the clamp is pure scheduling policy.
 */

#ifndef PDR_PAR_STEPPER_HH
#define PDR_PAR_STEPPER_HH

#include <atomic>
#include <thread>
#include <vector>

#include "net/network.hh"
#include "par/partition.hh"

namespace pdr::prof {
class Profiler;
} // namespace pdr::prof

namespace pdr::par {

/** Parallel-execution configuration (the par.* experiment keys). */
struct ParConfig
{
    int workers = 1;                    //!< 1 = serial stepping.
    Scheme scheme = Scheme::Planes;
};

/**
 * Worker threads for a network-level request: `requested` > 0 wins,
 * then PDR_PAR_WORKERS, then 1; always clamped to the per-sweep-worker
 * share of the hardware when called from inside a sweep pool.  A
 * PDR_PAR_WORKERS that is set but not a positive integer throws
 * std::invalid_argument.
 */
int resolveWorkers(int requested = 0);

/** Centralized sense-reversing spin barrier (yields when starved). */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int participants) : n_(participants) {}

    void arrive();

  private:
    int n_;
    std::atomic<int> count_{0};
    std::atomic<unsigned> generation_{0};
};

/** Steps one Network across a worker gang, cycle by cycle. */
class ParallelStepper
{
  public:
    /**
     * Attach to `net`.  The effective worker count is the partition's
     * (clamped by topology); with one worker the stepper degenerates
     * to plain Network::step() and spawns nothing.  While attached,
     * the network must be advanced through this stepper only.
     */
    ParallelStepper(net::Network &net, const ParConfig &cfg);

    /** Detaches: joins the gang and puts every channel back in
     *  direct (serial) mode. */
    ~ParallelStepper();

    ParallelStepper(const ParallelStepper &) = delete;
    ParallelStepper &operator=(const ParallelStepper &) = delete;

    /** Advance one cycle (never jumps the clock). */
    void step();

    /** Advance n cycles, fast-forwarding through idle regions. */
    void run(sim::Cycle n);

    /**
     * Advance to cycle `limit`, fast-forwarding through idle regions:
     * Network::drive with this stepper's step().  A non-null `obs`
     * (telemetry) is polled at its exact epochs with the gang parked;
     * the schedule is the same with or without it.
     */
    void stepTo(sim::Cycle limit, net::EpochObserver *obs = nullptr);

    /**
     * Attach the engine profiler (null detaches).  Must be called
     * from the stepping thread between cycles, before the profiled
     * span starts: workers read the pointer only after the next
     * cycle-start barrier release, which publishes the write.  The
     * profiler must outlive all subsequent stepping (destroy it
     * before the stepper, or detach first).  When attached, every
     * worker timestamps its tick / drain / barrier-wait phase
     * transitions -- purely observational, results unchanged.
     */
    void attachProfiler(prof::Profiler *prof) { prof_ = prof; }

    int workers() const { return W_; }
    const Partitioner &partitioner() const { return part_; }
    /** Channels currently in staged (cross-boundary) mode. */
    std::size_t crossChannels() const { return crossChans_; }

  private:
    using TagMode = traffic::MeasureController::TagMode;

    void workerLoop(int w);
    void runSlice(int w);
    void drainSlice(int w);

    net::Network &net_;
    Partitioner part_;
    int W_;
    std::size_t crossChans_ = 0;

    /** Staged channels grouped by the worker that consumes them. */
    std::vector<std::vector<net::Network::FlitChannel *>> flitDrain_;
    std::vector<std::vector<net::Network::CreditChannel *>>
        creditDrain_;

    std::vector<std::thread> threads_;  //!< Workers 1..W-1.
    prof::Profiler *prof_ = nullptr;    //!< Engine profiler, optional.
    SpinBarrier barrier_;
    std::atomic<bool> stop_{false};
    TagMode mode_ = TagMode::None;      //!< Published at cycle start.
};

} // namespace pdr::par

#endif // PDR_PAR_STEPPER_HH
