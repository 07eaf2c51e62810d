#include "exec/sweep.hh"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "common/rng.hh"
#include "exec/thread_pool.hh"

namespace pdr::exec {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration<double, std::milli>(steady_clock::now() - start)
        .count();
}

} // namespace

std::size_t
SweepResults::failures() const
{
    std::size_t n = 0;
    for (const auto &p : points)
        n += p.ok ? 0 : 1;
    return n;
}

void
SweepResults::throwIfFailed() const
{
    for (const auto &p : points) {
        if (!p.ok) {
            throw std::runtime_error("sweep point '" + p.label +
                                     "' failed: " + p.error);
        }
    }
}

stats::Table
SweepResults::toTable() const
{
    stats::Table t({"index", "label", "seed", "offered_fraction",
                    "accepted_fraction", "avg_latency", "p99_latency",
                    "drained", "cycles", "ok", "error"});
    for (const auto &p : points) {
        t.addRow({stats::Table::cell(std::uint64_t(p.index)), p.label,
                  stats::Table::cell(std::uint64_t(p.cfg.net.seed)),
                  stats::Table::cell(p.res.offeredFraction),
                  stats::Table::cell(p.res.acceptedFraction),
                  stats::Table::cell(p.res.avgLatency),
                  stats::Table::cell(p.res.p99Latency),
                  stats::Table::cell(p.res.drained),
                  stats::Table::cell(std::uint64_t(p.res.cycles)),
                  stats::Table::cell(p.ok), p.error});
    }
    return t;
}

stats::Table
SweepResults::telemTable() const
{
    stats::Table t({"index", "label", "telem_windows", "telem_flits",
                    "telem_packets", "peak_window_rate",
                    "trace_events"});
    for (const auto &p : points) {
        t.addRow({stats::Table::cell(std::uint64_t(p.index)), p.label,
                  stats::Table::cell(p.res.telem.windows),
                  stats::Table::cell(p.res.telem.flits),
                  stats::Table::cell(p.res.telem.packets),
                  stats::Table::cell(p.res.telem.peakWindowRate),
                  stats::Table::cell(p.res.telem.traceEvents)});
    }
    return t;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {}

std::uint64_t
SweepRunner::pointSeed(std::uint64_t base, std::size_t index)
{
    return deriveSeed(base, index);
}

SweepResults
SweepRunner::run(const std::vector<SweepPoint> &points) const
{
    return run(points,
               [](const api::SimConfig &cfg) {
                   return api::runSimulation(cfg);
               });
}

SweepResults
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const RunFn &fn) const
{
    // pdr-lint: allow(PDR-OBS-WALLCLOCK) wall-time telemetry only
    // (elapsed reporting); never reaches simulation state or
    // sim-facing output.
    auto sweep_start = std::chrono::steady_clock::now();

    SweepResults results;
    results.points.resize(points.size());

    ThreadPool pool(opts_.threads);
    results.threads = pool.size();

    for (std::size_t i = 0; i < points.size(); i++) {
        auto &slot = results.points[i];
        slot.label = points[i].label;
        slot.index = opts_.firstIndex + i;
        slot.cfg = points[i].cfg;
        slot.cfg.net.seed = pointSeed(opts_.baseSeed, slot.index);
    }

    // Submission order: heaviest (highest offered load) first, so the
    // long saturated runs do not trail the sweep.  Seeds were assigned
    // above by input index, and every slot is written in input order,
    // so scheduling cannot change any per-point result.
    std::vector<std::size_t> order(points.size());
    std::vector<double> weight(points.size(), 0.0);
    for (std::size_t i = 0; i < points.size(); i++) {
        order[i] = i;
        try {
            weight[i] = points[i].cfg.net.offeredFraction();
        } catch (...) {
            // Invalid config: weight 0; the point itself will be
            // recorded as failed when it runs.
        }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return weight[a] > weight[b];
                     });

    // Progress state shared by the pool workers: the mutex serializes
    // onPointDone calls, so user callbacks (a CLI progress line) need
    // no locking of their own.  Pure reporting -- per-point results
    // are written before the counter moves and never read here.
    std::mutex progress_mutex;
    std::size_t done = 0;
    const std::size_t total = points.size();

    for (std::size_t i : order) {
        PointResult *slot = &results.points[i];
        pool.submit([this, slot, &fn, &progress_mutex, &done, total] {
            // pdr-lint: allow(PDR-OBS-WALLCLOCK) per-point wall-time
            // telemetry; never reaches simulation state or sim-facing
            // output.
            auto start = std::chrono::steady_clock::now();
            try {
                slot->res = fn(slot->cfg);
                slot->ok = true;
            } catch (const std::exception &e) {
                slot->error = e.what();
            } catch (...) {
                slot->error = "unknown exception";
            }
            slot->wallMs = msSince(start);
            if (opts_.onPointDone) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                done++;
                opts_.onPointDone(done, total, slot->wallMs);
            }
        });
    }
    pool.wait();

    results.wallMs = msSince(sweep_start);
    return results;
}

} // namespace pdr::exec
