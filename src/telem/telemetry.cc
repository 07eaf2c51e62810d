#include "telem/telemetry.hh"

#include <iostream>
#include <stdexcept>

#include "common/logging.hh"
#include "prof/profiler.hh"

namespace pdr::telem {

void
Config::validate() const
{
    if (interval < 1) {
        throw std::invalid_argument(
            "telem.interval must be >= 1 cycle");
    }
    if (tracePackets < 1) {
        throw std::invalid_argument(
            "telem.trace_packets must be >= 1 (1 traces every "
            "packet)");
    }
    if (!out.empty() && out == trace && out != "/dev/null") {
        throw std::invalid_argument(
            "telem.out and telem.trace both name '" + out +
            "'; the stream and the trace need files of their own");
    }
}

bool
operator==(const Config &a, const Config &b)
{
    return a.enable == b.enable && a.interval == b.interval &&
           a.out == b.out && a.trace == b.trace &&
           a.tracePackets == b.tracePackets;
}

// ----- HostProfiler ----------------------------------------------------

void
HostProfiler::bind(TraceWriter *trace)
{
    trace_ = trace;
    // Wall clock, host-profile stream only: these timestamps are
    // emitted exclusively as kHostPid trace events.
    // pdr-lint: allow(PDR-OBS-WALLCLOCK) host-profile trace stream;
    // values never reach sim-facing output.
    epoch_ = std::chrono::steady_clock::now();
    lastWindowUs_ = 0;
}

std::uint64_t
HostProfiler::nowUs() const
{
    if (!trace_)
        return 0;
    // pdr-lint: allow(PDR-OBS-WALLCLOCK) host-profile trace stream;
    // values never reach sim-facing output.
    auto d = std::chrono::steady_clock::now() - epoch_;
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(d)
            .count());
}

void
HostProfiler::windowSpan(sim::Cycle cycle)
{
    if (!trace_ || !trace_->active())
        return;
    const std::uint64_t now = nowUs();
    trace_->completeEvent(TraceWriter::kHostPid, 0, "window", "host",
                          lastWindowUs_, now - lastWindowUs_,
                          csprintf("{\"cycle\": %llu}",
                                   (unsigned long long)cycle));
    lastWindowUs_ = now;
}

HostProfiler::Scope::Scope(HostProfiler *prof, const char *name)
    : prof_(prof && prof->trace_ ? prof : nullptr), name_(name)
{
    if (prof_)
        t0_ = prof_->nowUs();
}

HostProfiler::Scope::~Scope()
{
    if (!prof_ || !prof_->trace_->active())
        return;
    const std::uint64_t t1 = prof_->nowUs();
    prof_->trace_->completeEvent(TraceWriter::kHostPid, 0, name_,
                                 "host", t0_, t1 - t0_);
}

// ----- Telemetry -------------------------------------------------------

Telemetry::Telemetry(const Config &cfg, net::Network &net,
                     prof::Profiler *prof)
    : cfg_(cfg), net_(net), prof_(prof)
{
    cfg_.validate();

    if ((cfg_.enable || prof_) && !cfg_.out.empty()) {
        if (cfg_.out == "-") {
            streamOut_ = &std::cout;
        } else {
            streamFile_.open(cfg_.out);
            if (!streamFile_) {
                throw std::runtime_error("telem.out: cannot write '" +
                                         cfg_.out + "'");
            }
            streamOut_ = &streamFile_;
        }
    }

    if (!cfg_.trace.empty()) {
        traceFile_.open(cfg_.trace);
        if (!traceFile_) {
            throw std::runtime_error("telem.trace: cannot write '" +
                                     cfg_.trace + "'");
        }
        trace_ = std::make_unique<TraceWriter>(&traceFile_);
        trace_->processName(TraceWriter::kPacketPid, "sim: packets");
        trace_->processName(TraceWriter::kRouterPid, "sim: routers");
        trace_->processName(TraceWriter::kHostPid, "host: profile");
        if (prof_)
            trace_->processName(TraceWriter::kWorkerPid,
                                "host: workers");
        host_.bind(trace_.get());

        // Read-only hooks: the sinks log their deliveries, and each
        // router appends its closed credit-stall spans to its own
        // buffer.
        net_.recordDeliveries(true);
        stallSpans_.resize(std::size_t(net_.lattice().numRouters()));
        for (sim::NodeId r = 0; r < net_.lattice().numRouters(); r++)
            net_.routerAt(r).traceStalls(&stallSpans_[std::size_t(r)]);
    }

    if (cfg_.enable)
        sampler_ = std::make_unique<StreamSampler>(net_, streamOut_);

    // The profiler rides the telemetry cadence: a profiled run has
    // sampling epochs even with the stream sampler and trace off.
    if (cfg_.active() || prof_)
        nextSampleAt_ = net_.now() + cfg_.interval;
}

Telemetry::~Telemetry()
{
    finish();
}

void
Telemetry::poll()
{
    while (nextSampleAt_ <= net_.now()) {
        emitEpoch(nextSampleAt_);
        nextSampleAt_ += cfg_.interval;
    }
}

void
Telemetry::emitEpoch(sim::Cycle at)
{
    // Epochs land exactly on their boundary: cap() bounds every clock
    // jump and poll() runs before each step, so the clock cannot pass
    // a boundary unobserved.
    pdr_assert(net_.now() == at);
    host_.windowSpan(at);
    if (sampler_)
        sampler_->sampleWindow(at, trace_.get());
    if (prof_)
        emitProfEpoch(prof_->sampleEpoch(at));
    if (trace_) {
        drainPacketSpans();
        drainStallSpans();
    }
}

void
Telemetry::emitProfEpoch(const prof::Epoch &e)
{
    const auto W = std::size_t(prof_->workers());

    // Window-level imbalance metrics: max/mean worker tick load and
    // the fraction of total worker wall time spent barrier-waiting.
    std::uint64_t sumTick = 0, maxTick = 0, sumBar = 0, sumAll = 0;
    for (std::size_t w = 0; w < W; w++) {
        sumTick += e.tickUs[w];
        maxTick = std::max(maxTick, e.tickUs[w]);
        sumBar += e.barrierUs[w];
        sumAll += e.tickUs[w] + e.drainUs[w] + e.barrierUs[w] +
                  e.idleUs[w];
    }
    const double loadMaxMean =
        sumTick ? double(maxTick) * double(W) / double(sumTick) : 0.0;
    const double barrierFrac =
        sumAll ? double(sumBar) / double(sumAll) : 0.0;

    if (streamOut_) {
        // worker_window: host wall time per worker and phase --
        // inherently nondeterministic (wall clock), unlike every
        // sim-derived record in this stream.
        std::string rec = csprintf(
            "{\"type\": \"worker_window\", \"cycle\": %llu, "
            "\"window\": %llu, \"workers\": %d",
            (unsigned long long)e.cycle, (unsigned long long)e.window,
            int(W));
        struct
        {
            const char *name;
            const std::vector<std::uint64_t> &v;
        } series[] = {{"tick_us", e.tickUs},
                      {"drain_us", e.drainUs},
                      {"barrier_us", e.barrierUs},
                      {"idle_us", e.idleUs}};
        for (const auto &s : series) {
            rec += csprintf(", \"%s\": [", s.name);
            for (std::size_t w = 0; w < W; w++)
                rec += csprintf("%s%llu", w ? "," : "",
                                (unsigned long long)s.v[w]);
            rec += "]";
        }
        rec += csprintf(
            ", \"load_max_mean\": %.4f, \"barrier_frac\": %.4f}\n",
            loadMaxMean, barrierFrac);
        *streamOut_ << rec;

        // weight_heatmap: per-router cycles ticked in the window --
        // deterministic, byte-identical across worker counts (the
        // repartitioner-facing signal).
        rec = csprintf("{\"type\": \"weight_heatmap\", \"cycle\": "
                       "%llu, \"window\": %llu, \"weights\": [",
                       (unsigned long long)e.cycle,
                       (unsigned long long)e.window);
        for (std::size_t r = 0; r < e.weights.size(); r++)
            rec += csprintf("%s%llu", r ? "," : "",
                            (unsigned long long)e.weights[r]);
        rec += "]}\n";
        *streamOut_ << rec;
    }

    if (trace_ && trace_->active()) {
        // One window span per worker tid with the phase spans laid
        // contiguously inside it (tick, then drain, then barrier;
        // idle is the remainder), so span nesting holds by
        // construction and ts is monotonic per tid.
        workerSpanUs_.resize(W, 0);
        for (std::size_t w = 0; w < W; w++) {
            const std::uint64_t t0 = workerSpanUs_[w];
            const std::uint64_t busy =
                e.tickUs[w] + e.drainUs[w] + e.barrierUs[w];
            const std::uint64_t dur = busy + e.idleUs[w];
            trace_->completeEvent(
                TraceWriter::kWorkerPid, w, "window", "worker", t0,
                dur,
                csprintf("{\"cycle\": %llu}",
                         (unsigned long long)e.cycle));
            trace_->completeEvent(TraceWriter::kWorkerPid, w, "tick",
                                  "worker", t0, e.tickUs[w]);
            trace_->completeEvent(TraceWriter::kWorkerPid, w, "drain",
                                  "worker", t0 + e.tickUs[w],
                                  e.drainUs[w]);
            trace_->completeEvent(TraceWriter::kWorkerPid, w,
                                  "barrier", "worker",
                                  t0 + e.tickUs[w] + e.drainUs[w],
                                  e.barrierUs[w]);
            const double util =
                dur ? 100.0 * double(e.tickUs[w] + e.drainUs[w]) /
                          double(dur)
                    : 0.0;
            const std::string track = csprintf("worker%d", int(w));
            trace_->counterEvent(TraceWriter::kWorkerPid,
                                 track.c_str(), t0 + dur, "util_pct",
                                 util);
            workerSpanUs_[w] = t0 + dur;
        }
    }
}

void
Telemetry::drainPacketSpans()
{
    // takeDeliveries() returns the serial ejection order at every
    // worker count, and sampling by packet id keeps the traced subset
    // identical across worker counts.
    for (const auto &d : net_.takeDeliveries()) {
        if (d.packet % cfg_.tracePackets != 0)
            continue;
        trace_->completeEvent(
            TraceWriter::kPacketPid, std::uint64_t(d.dest), "packet",
            "packet", d.at - d.latency, d.latency,
            csprintf("{\"packet\": %llu, \"dest\": %d}",
                     (unsigned long long)d.packet, int(d.dest)));
    }
}

void
Telemetry::drainStallSpans()
{
    // Router-index order; each router's spans are already in close
    // order (its own ticks observe increasing cycles), so the drain
    // order is a pure function of simulation state.
    for (std::size_t r = 0; r < stallSpans_.size(); r++) {
        const int v = net_.routerAt(sim::NodeId(r)).config().numVcs;
        for (const auto &s : stallSpans_[r]) {
            trace_->completeEvent(
                TraceWriter::kRouterPid, r, "credit_stall", "stall",
                s.from, s.to - s.from,
                csprintf("{\"port\": %d, \"vc\": %d}",
                         int(s.vidx) / v, int(s.vidx) % v));
        }
        stallSpans_[r].clear();
    }
}

void
Telemetry::finish()
{
    if (finished_)
        return;
    finished_ = true;

    poll();
    const sim::Cycle end = net_.now();
    if (prof_) {
        // Final partial profiling window (mirrors the sampler's).
        if (const prof::Epoch *e = prof_->finish(end))
            emitProfEpoch(*e);
    }
    if (sampler_)
        sampler_->finish(end, trace_.get());
    if (trace_) {
        // Flush intervals still open at end-of-run as spans ending at
        // `end` (read-only: statistics are untouched).
        for (sim::NodeId r = 0;
             r < net_.lattice().numRouters(); r++)
            net_.routerAt(r).traceOpenStalls(end);
        drainPacketSpans();
        drainStallSpans();
    }

    if (sampler_)
        summary_ = sampler_->summary();
    summary_.traceEvents = trace_ ? trace_->events() : 0;

    if (trace_)
        trace_->close();

    // Detach the read hooks so the network outlives the facade
    // cleanly.
    if (!cfg_.trace.empty()) {
        net_.recordDeliveries(false);
        for (sim::NodeId r = 0;
             r < net_.lattice().numRouters(); r++)
            net_.routerAt(r).traceStalls(nullptr);
    }
    if (streamOut_)
        streamOut_->flush();
}

} // namespace pdr::telem
