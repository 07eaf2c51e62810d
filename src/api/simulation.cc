#include "api/simulation.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/logging.hh"
#include "common/parse.hh"
#include "exec/thread_pool.hh"
#include "par/stepper.hh"
#include "prof/profiler.hh"
#include "telem/telemetry.hh"

namespace pdr::api {

void
SimConfig::applyEnvDefaults()
{
    if (auto v = envCount("PDR_PACKETS"))
        net.samplePackets = v;
    if (auto v = envCount("PDR_WARMUP"))
        net.warmup = sim::Cycle(v);
    if (auto v = envCount("PDR_MAX_CYCLES"))
        maxCycles = sim::Cycle(v);
}

bool
SimResults::saturated() const
{
    if (!drained)
        return true;
    return acceptedFraction < 0.9 * offeredFraction;
}

namespace {

constexpr double kNoStop = std::numeric_limits<double>::infinity();

/**
 * runSimulation(), plus findSaturation()'s early exit: the sample phase
 * stops, undrained, once the sample's latency-sum lower bound divided
 * by the sample size exceeds `stop_latency` -- the probe's mean can
 * then only fail the same test.  kNoStop runs the full protocol.
 */
SimResults
simulate(const SimConfig &cfg, double stop_latency)
{
    if (cfg.mode != "sample" && cfg.mode != "fixed") {
        throw std::invalid_argument("sim.mode must be 'sample' or "
                                    "'fixed', got '" + cfg.mode + "'");
    }

    net::Network network(cfg.net);
    auto &ctrl = network.controller();

    // Intra-network partitioned stepping: bit-identical to serial
    // stepping for any worker count (the stepper with one worker is
    // exactly Network::step()), so the measurement protocol below is
    // shared.
    par::ParConfig pcfg;
    pcfg.workers = par::resolveWorkers(cfg.parWorkers);
    pcfg.scheme = par::schemeFromString(cfg.parScheme);
    par::ParallelStepper stepper(network, pcfg);

    // Engine profiler: constructed after the stepper, destroyed
    // before it (declaration order); the stepper holds a raw pointer
    // while profiling.  Read-only, like telemetry below.
    std::unique_ptr<prof::Profiler> prof;
    if (cfg.prof.enable) {
        prof = std::make_unique<prof::Profiler>(network,
                                                stepper.workers());
        stepper.attachProfiler(prof.get());
    }

    // Observability sidecar: constructed after the stepper (destroyed
    // before it), samples only at epochs where the gang is parked.
    // Strictly read-only -- the stepping below is schedule-identical
    // with telemetry on or off.  A profiled run always has one: the
    // profiler's epochs ride the telemetry cadence.
    std::unique_ptr<telem::Telemetry> tel;
    if (cfg.telem.active() || prof)
        tel = std::make_unique<telem::Telemetry>(cfg.telem, network,
                                                 prof.get());

    if (cfg.mode == "fixed") {
        // Fixed horizon: ignore the measurement protocol and report
        // steady-state rates after exactly `horizon` cycles.
        telem::HostProfiler::Scope phase(tel ? &tel->host() : nullptr,
                                         "fixed");
        stepper.stepTo(network.now() + cfg.horizon, tel.get());
    } else {
        {
            // Warm-up phase.
            telem::HostProfiler::Scope phase(
                tel ? &tel->host() : nullptr, "warmup");
            stepper.stepTo(network.now() + cfg.net.warmup, tel.get());
        }

        // Sample phase: run until the sample space is tagged and
        // received, or the cycle cap is reached (saturated networks
        // never drain).  done() can only change on a cycle where some
        // component acts, so fast-forwarding through idle regions
        // between steps never skips the termination cycle.  The early
        // exit is tested at the same points, before each jump.
        telem::HostProfiler::Scope phase(tel ? &tel->host() : nullptr,
                                         "sample");
        const double n = double(ctrl.sampleSize());
        auto stop = [&] {
            if (ctrl.done())
                return true;
            return stop_latency < kNoStop &&
                   double(ctrl.latencySumLowerBound(network.now())) / n >
                       stop_latency;
        };
        network.drive(cfg.maxCycles, [&] { stepper.step(); }, stop,
                      tel.get());
    }

    if (tel)
        tel->finish();

    // [AUD-LEAK] Every flit sent and not yet ejected is in some
    // queue: none was lost or duplicated on the way.
    if (network.auditEnabled())
        network.auditTeardown();

    SimResults res;
    res.offeredFraction = cfg.net.offeredFraction();
    res.acceptedFraction = network.acceptedFraction();
    auto lat = network.latency();
    res.avgLatency = lat.mean();
    res.p99Latency = lat.percentile(99.0);
    res.sampleReceived = ctrl.received();
    res.sampleSize = ctrl.sampleSize();
    // Fixed-horizon runs do not use the measurement protocol; report
    // them as drained so saturated() reflects accepted-vs-offered only.
    res.drained = cfg.mode == "fixed" || ctrl.done();
    res.cycles = network.now();
    res.routers = network.routerTotals();
    if (tel)
        res.telem = tel->summary();
    if (prof)
        res.prof = std::make_shared<const prof::Capture>(
            prof->takeCapture());
    return res;
}

} // namespace

SimResults
runSimulation(const SimConfig &cfg)
{
    return simulate(cfg, kNoStop);
}

double
findSaturation(SimConfig cfg, double latency_limit, double tolerance)
{
    pdr_assert(tolerance > 0.0);
    if (cfg.net.samplePackets == 0) {
        throw std::invalid_argument("findSaturation: sim.sample_packets "
                                    "= 0 leaves the zero-load probe "
                                    "without a latency sample");
    }

    // One pool runs every probe of the search, the zero-load one too.
    // With one pool thread, every network is built and freed on that
    // thread and reuses its malloc arena, which keeps peak RSS flat
    // over back-to-back searches (docs/ARCHITECTURE.md).
    exec::ThreadPool pool;

    // Zero-load latency reference at 2 % load.  It is also the lowest
    // candidate, so it answers the first bracket check itself.
    cfg.net.setOfferedFraction(0.02);
    SimResults zr;
    pool.submit([&] { zr = runSimulation(cfg); });
    pool.wait();
    const double limit = latency_limit * zr.avgLatency;
    if (!(zr.drained && zr.avgLatency <= limit))
        return 0.0;

    // A node injects at most one flit per cycle, which caps the
    // offered fraction of a topology whose capacity exceeds 1.
    double lo = 0.02, hi = std::min(1.0, 1.0 / cfg.net.capacity());

    // Bracketing grid search: each round splits [lo, hi] into
    // `fanout` + 1 intervals and narrows to the interval around the
    // first failing candidate (assuming the same monotone response
    // bisection assumes).  Only that failure is read, so candidates
    // are submitted in ascending load order and one that starts after
    // a lower candidate failed returns without simulating.  Every
    // candidate below the first failure passes and so always runs, and
    // the failure itself always runs: `first_fail` ends at the same
    // index for any pool size or schedule.  Each probe keeps cfg's own
    // seed, and stops early once its latency-sum lower bound proves
    // the mean will exceed the limit; it then reports undrained, which
    // fails the test exactly as the full run would have
    // (docs/ARCHITECTURE.md, "Saturation search").
    constexpr int fanout = 7;
    while (hi - lo > tolerance) {
        double grid[fanout] = {};
        for (int i = 0; i < fanout; i++)
            grid[i] = lo + (hi - lo) * (i + 1) / (fanout + 1);

        std::atomic<int> first_fail{fanout};
        for (int i = 0; i < fanout; i++) {
            pool.submit([&, i] {
                if (first_fail.load() < i)
                    return;     // A lower candidate already failed.
                auto c = cfg;
                c.net.setOfferedFraction(grid[i]);
                SimResults r = simulate(c, limit);
                if (r.drained && r.avgLatency <= limit)
                    return;
                // Lower first_fail to i unless a lower failure is in.
                int f = first_fail.load();
                while (i < f && !first_fail.compare_exchange_weak(f, i)) {
                }
            });
        }
        pool.wait();

        const int f = first_fail.load();
        if (f > 0)
            lo = grid[f - 1];
        if (f < fanout)
            hi = grid[f];
    }
    return lo;
}

} // namespace pdr::api
