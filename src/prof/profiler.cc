#include "prof/profiler.hh"

#include <cassert>
#include <chrono>

#include "net/network.hh"

namespace pdr::prof {

bool
operator==(const Config &a, const Config &b)
{
    return a.enable == b.enable;
}

namespace {

/** Monotonic host clock in ns.  The one wall-clock source in the
 *  profiler: values feed phase wall-time reporting only and never
 *  reach sim-facing output (docs/OBSERVABILITY.md). */
std::uint64_t
hostNs()
{
    // pdr-lint: allow(PDR-OBS-WALLCLOCK) engine-profiler phase
    // clock; wall-time values stay in worker_window records and the
    // host trace pid, never in simulation state or result CSVs.
    const auto t = std::chrono::steady_clock::now();
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

} // namespace

Profiler::Profiler(net::Network &net, int workers)
    : net_(net), W_(workers)
{
    assert(W_ >= 1);
    shards_.resize(std::size_t(W_));
    const std::uint64_t now = hostNs();
    for (int w = 0; w < W_; w++) {
        // Workers 1..W-1 sit parked at the cycle-start barrier until
        // the first step; worker 0 is outside the stepper.
        shards_[std::size_t(w)].open =
            w == 0 ? Phase::Idle : Phase::Barrier;
        shards_[std::size_t(w)].openSince = now;
    }
    const auto routers = std::size_t(net_.lattice().numRouters());
    weights_.assign(routers, 0);
    lastWeights_.assign(routers, 0);
    lastEffNs_.assign(std::size_t(W_) * kPhases, 0);
    cap_.workers = W_;
    net_.profileTickWeights(&weights_);
}

Profiler::~Profiler()
{
    net_.profileTickWeights(nullptr);
}

std::uint64_t
Profiler::nowNs() const
{
    return hostNs();
}

void
Profiler::mark(int w, Phase p)
{
    Shard &s = shards_[std::size_t(w)];
    const std::uint64_t now = nowNs();
    s.accNs[int(s.open)] += now - s.openSince;
    s.openSince = now;
    s.open = p;
}

const Epoch &
Profiler::sampleEpoch(sim::Cycle at)
{
    const std::uint64_t now = nowNs();
    Epoch e;
    e.cycle = at;
    e.window = at - lastCycle_;
    e.tickUs.resize(std::size_t(W_));
    e.drainUs.resize(std::size_t(W_));
    e.barrierUs.resize(std::size_t(W_));
    e.idleUs.resize(std::size_t(W_));
    for (int w = 0; w < W_; w++) {
        // Prorate the open phase to the sampling instant so the four
        // deltas always sum to this worker's window wall time; safe
        // to read cross-thread because the gang is parked (no shard
        // writes) and the barrier published every prior mark.
        const Shard &s = shards_[std::size_t(w)];
        std::uint64_t us[kPhases];
        for (int p = 0; p < kPhases; p++) {
            std::uint64_t eff = s.accNs[p];
            if (p == int(s.open))
                eff += now - s.openSince;
            std::uint64_t &last =
                lastEffNs_[std::size_t(w) * kPhases + std::size_t(p)];
            us[p] = (eff - last) / 1000;
            last = eff;
        }
        e.idleUs[std::size_t(w)] = us[int(Phase::Idle)];
        e.tickUs[std::size_t(w)] = us[int(Phase::Tick)];
        e.drainUs[std::size_t(w)] = us[int(Phase::Drain)];
        e.barrierUs[std::size_t(w)] = us[int(Phase::Barrier)];
    }
    e.weights.resize(weights_.size());
    for (std::size_t r = 0; r < weights_.size(); r++) {
        e.weights[r] = weights_[r] - lastWeights_[r];
        lastWeights_[r] = weights_[r];
    }
    lastCycle_ = at;
    cap_.cycles = at;
    cap_.weights = weights_;
    cap_.epochs.push_back(std::move(e));
    return cap_.epochs.back();
}

const Epoch *
Profiler::finish(sim::Cycle end)
{
    if (finished_)
        return nullptr;
    finished_ = true;
    cap_.weights = weights_;
    cap_.cycles = end;
    if (end <= lastCycle_)
        return nullptr;
    return &sampleEpoch(end);
}

} // namespace pdr::prof
