/**
 * @file
 * Telemetry facade: owns the output streams and coordinates the three
 * observability layers -- the sharded counter registry (counters.hh),
 * the windowed stream sampler (sampler.hh) and the trace emitter
 * (trace.hh) -- as the run's net::EpochObserver.  Network::drive, the
 * one stepping loop, makes its two calls at safe points:
 *
 *   cap(limit)  bounds every clock fast-forward so the simulation
 *               stops exactly on each sampling epoch.  skipIdle never
 *               ticks anything, and drive's resume rule never steps a
 *               cycle just because a jump stopped on an epoch, so the
 *               schedule is the same with telemetry on or off; and
 *   poll()      emits every window record that has come due at the
 *               current cycle, then drains the trace buffers.
 *
 * Under partitioned stepping both calls run on the stepping thread
 * between ParallelStepper::step() calls, where the gang is parked at
 * the cycle-start barrier behind the post-drain barrier: network
 * state is globally consistent and reads race with nothing.
 *
 * Lifetime: construct after the Network (and stepper), destroy (or
 * finish()) before them -- the facade turns the sinks' delivery logs
 * off and detaches its stall-span hooks at finish.  While a trace is
 * open the facade owns the delivery logs: its packet spans read
 * Network::takeDeliveries() at every epoch.
 *
 * The hard contract of the whole subsystem: telemetry is read-only
 * with respect to simulation state.  RNG streams, wake tables and
 * goldens are untouched whether it is on or off (enforced by the
 * telemetry-on golden gates in CI and tests/telem/).
 */

#ifndef PDR_TELEM_TELEMETRY_HH
#define PDR_TELEM_TELEMETRY_HH

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <vector>

#include "net/network.hh"
#include "prof/config.hh"
#include "telem/config.hh"
#include "telem/sampler.hh"
#include "telem/trace.hh"

namespace pdr::prof {
class Profiler;
} // namespace pdr::prof

namespace pdr::telem {

/**
 * Host-wall-clock profile scopes, written to the trace's host pid.
 * This is the one sanctioned home of wall-clock reads in sim-adjacent
 * code (lint rule PDR-OBS-WALLCLOCK): timestamps from here go only
 * into kHostPid trace events, never into sim-facing output.
 */
class HostProfiler
{
  public:
    /** RAII phase scope; a nullptr profiler (or one with no trace
     *  bound) makes it a no-op. */
    class Scope
    {
      public:
        Scope(HostProfiler *prof, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostProfiler *prof_;
        const char *name_;
        std::uint64_t t0_ = 0;
    };

    /** Attach the trace writer (Telemetry does this); nullptr keeps
     *  the profiler dormant. */
    void bind(TraceWriter *trace);

    /** Wall microseconds since bind(); host-profile stream only. */
    std::uint64_t nowUs() const;

    /** Emit a host-time span covering the work since the previous
     *  epoch, labeled with the sim cycle of the epoch ending now. */
    void windowSpan(sim::Cycle cycle);

  private:
    friend class Scope;
    TraceWriter *trace_ = nullptr;
    std::chrono::steady_clock::time_point epoch_;
    std::uint64_t lastWindowUs_ = 0;
};

/** The per-run telemetry coordinator; see file comment. */
class Telemetry : public net::EpochObserver
{
  public:
    /**
     * Opens the configured streams (throws std::runtime_error when a
     * path cannot be written) and attaches the read-only hooks.  A
     * non-null `prof` exports the engine profiler through the same
     * streams: worker_window / weight_heatmap NDJSON records each
     * epoch and kWorkerPid trace spans, with epochs running on the
     * telemetry cadence even when the sampler itself is off.
     */
    Telemetry(const Config &cfg, net::Network &net,
              prof::Profiler *prof = nullptr);
    ~Telemetry() override;

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** Clock-jump cap: never fast-forward past the next epoch. */
    sim::Cycle
    cap(sim::Cycle limit) const override
    {
        return std::min(limit, nextSampleAt_);
    }

    /** Emit every epoch due at net.now(); safe points only. */
    void poll() override;

    /**
     * End of run: final partial window, per-router heatmap, open
     * stall intervals, trace footer; detaches all hooks and flushes.
     * Idempotent; the destructor calls it if nobody else has.
     */
    void finish();

    HostProfiler &host() { return host_; }

    /** Valid after finish(). */
    const Summary &summary() const { return summary_; }

  private:
    void emitEpoch(sim::Cycle at);
    void emitProfEpoch(const prof::Epoch &e);
    void drainPacketSpans();
    void drainStallSpans();

    Config cfg_;
    net::Network &net_;
    prof::Profiler *prof_ = nullptr;    //!< Engine profiler, optional.

    std::ofstream streamFile_;
    std::ofstream traceFile_;
    std::ostream *streamOut_ = nullptr;     //!< nullptr = discard.

    std::unique_ptr<TraceWriter> trace_;
    std::unique_ptr<StreamSampler> sampler_;
    HostProfiler host_;

    /** Per-router closed stall spans (one vector per router so
     *  concurrently ticking workers never share a buffer). */
    std::vector<std::vector<router::Router::StallSpan>> stallSpans_;

    /** Per-worker trace-span cursor: where the next kWorkerPid window
     *  span starts (wall us); keeps spans contiguous per tid. */
    std::vector<std::uint64_t> workerSpanUs_;

    sim::Cycle nextSampleAt_ = sim::CycleNever;
    Summary summary_;
    bool finished_ = false;
};

} // namespace pdr::telem

#endif // PDR_TELEM_TELEMETRY_HH
