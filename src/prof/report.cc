#include "prof/report.hh"

#include <algorithm>
#include <istream>
#include <stdexcept>

#include "common/logging.hh"
#include "common/parse.hh"
#include "par/partition.hh"

namespace pdr::prof {

namespace {

/** Hottest routers the report lists. */
constexpr std::size_t kTopRouters = 8;

/**
 * Analysis partition size for the tick-weight imbalance verdict.
 * Deliberately decoupled from par.workers: the verdict is computed
 * from the deterministic weight signal over a fixed partition, so it
 * is identical no matter how many workers actually executed the run.
 */
constexpr int kReportWorkers = 4;

/**
 * Per-block weight shares of a plane-aligned split.  Throws
 * std::invalid_argument unless there is one weight per router of
 * `lat`: a stream read back against the wrong lattice would otherwise
 * index past the weights.
 */
std::vector<std::uint64_t>
planeBlockWeights(const std::vector<std::uint64_t> &weights,
                  const topo::Lattice &lat, int workers,
                  std::vector<par::Block> *blocksOut = nullptr)
{
    if (weights.size() != std::size_t(lat.numRouters())) {
        throw std::invalid_argument(csprintf(
            "the profile has %zu router weights but the lattice has %d "
            "routers; pass the profiled run's --net.k and "
            "--net.topology",
            weights.size(), lat.numRouters()));
    }
    par::Partitioner part(lat, workers, par::Scheme::Planes);
    std::vector<std::uint64_t> blockW(
        std::size_t(part.workers()), 0);
    for (int b = 0; b < part.workers(); b++) {
        const par::Block &blk = part.blocks()[std::size_t(b)];
        for (sim::NodeId r = blk.routerLo; r < blk.routerHi; r++)
            blockW[std::size_t(b)] += weights[std::size_t(r)];
    }
    if (blocksOut)
        *blocksOut = part.blocks();
    return blockW;
}

/**
 * The boundary the weighted scheme would pick: greedy cuts at the
 * cumulative-weight quantiles.  Returns the last router id of each of
 * the first W-1 blocks, plus the resulting max block share.
 */
std::vector<sim::NodeId>
weightedCuts(const std::vector<std::uint64_t> &weights, int workers,
             double *maxShare)
{
    std::uint64_t total = 0;
    for (auto w : weights)
        total += w;
    std::vector<sim::NodeId> cuts;
    *maxShare = 0.0;
    if (!total || workers < 2)
        return cuts;
    std::uint64_t cum = 0, blockStartCum = 0;
    int nextCut = 1;
    for (std::size_t r = 0;
         r < weights.size() && nextCut < workers; r++) {
        cum += weights[r];
        if (double(cum) >=
            double(total) * double(nextCut) / double(workers)) {
            cuts.push_back(sim::NodeId(r));
            *maxShare = std::max(
                *maxShare, double(cum - blockStartCum) /
                               double(total));
            blockStartCum = cum;
            nextCut++;
        }
    }
    *maxShare =
        std::max(*maxShare,
                 double(total - blockStartCum) / double(total));
    return cuts;
}

std::string
coordsOf(const topo::Lattice &lat, sim::NodeId r)
{
    std::string s = "(";
    for (int d = 0; d < lat.dims(); d++)
        s += csprintf("%s%d", d ? "," : "", lat.coordOf(r, d));
    return s + ")";
}

// ----- NDJSON parsing helpers ------------------------------------------
//
// Every number is parsed whole (common/parse.hh) and named by its
// line and key, so a malformed or truncated stream is an error, never
// a silent zero or a wild array length.

std::string
fieldName(std::size_t lineno, const char *key)
{
    return csprintf("profile stream line %zu \"%s\"", lineno, key);
}

/** The number after `"key": `, up to the next ',' or '}'. */
std::uint64_t
requireU64(const std::string &line, std::size_t lineno, const char *key)
{
    const std::string pat = std::string("\"") + key + "\": ";
    const auto pos = line.find(pat);
    if (pos == std::string::npos) {
        throw std::invalid_argument(csprintf(
            "profile stream line %zu: no \"%s\"", lineno, key));
    }
    const auto begin = pos + pat.size();
    return parseU64(fieldName(lineno, key),
                    line.substr(begin,
                                line.find_first_of(",}", begin) - begin));
}

/** The numbers of `"key": [...]`. */
std::vector<std::uint64_t>
requireArray(const std::string &line, std::size_t lineno,
             const char *key)
{
    const std::string pat = std::string("\"") + key + "\": [";
    const auto pos = line.find(pat);
    const auto end =
        pos == std::string::npos ? pos : line.find(']', pos);
    if (end == std::string::npos) {
        throw std::invalid_argument(csprintf(
            "profile stream line %zu: no complete \"%s\" array",
            lineno, key));
    }
    const auto begin = pos + pat.size();
    std::vector<std::uint64_t> out;
    for (auto at = begin; at < end;) {
        auto comma = std::min(line.find(',', at), end);
        out.push_back(parseU64(fieldName(lineno, key),
                               line.substr(at, comma - at)));
        at = comma + 1;
    }
    return out;
}

} // namespace

double
weightImbalance(const std::vector<std::uint64_t> &weights,
                const topo::Lattice &lat, int workers)
{
    const auto blockW = planeBlockWeights(weights, lat, workers);
    std::uint64_t total = 0, maxW = 0;
    for (auto w : blockW) {
        total += w;
        maxW = std::max(maxW, w);
    }
    if (!total)
        return 0.0;
    return double(maxW) * double(blockW.size()) / double(total);
}

std::string
buildReport(const Capture &cap, const topo::Lattice &lat)
{
    // First, so a capture that does not fit `lat` fails before any
    // router index is used.
    std::vector<par::Block> blocks;
    const auto blockW = planeBlockWeights(cap.weights, lat,
                                          kReportWorkers, &blocks);

    std::string out;
    out += csprintf(
        "profile: %zu window(s) over %llu cycles, %d worker(s)\n",
        cap.epochs.size(), (unsigned long long)cap.cycles,
        cap.workers);

    // ----- per-worker utilization (host wall clock) ------------------
    const auto W = std::size_t(std::max(cap.workers, 1));
    std::vector<std::uint64_t> tick(W, 0), drain(W, 0), barrier(W, 0),
        idle(W, 0);
    for (const auto &e : cap.epochs) {
        for (std::size_t w = 0; w < W && w < e.tickUs.size(); w++) {
            tick[w] += e.tickUs[w];
            drain[w] += e.drainUs[w];
            barrier[w] += e.barrierUs[w];
            idle[w] += e.idleUs[w];
        }
    }
    out += "\nper-worker phase wall time (whole run):\n";
    out += "  worker     tick_ms    drain_ms  barrier_ms   util%\n";
    std::uint64_t sumTick = 0, maxTick = 0, sumBar = 0, sumAll = 0;
    for (std::size_t w = 0; w < W; w++) {
        const std::uint64_t busy = tick[w] + drain[w] + barrier[w];
        const std::uint64_t all = busy + idle[w];
        out += csprintf(
            "  %6zu  %10.1f  %10.1f  %10.1f  %6.1f\n", w,
            double(tick[w]) / 1000.0, double(drain[w]) / 1000.0,
            double(barrier[w]) / 1000.0,
            all ? 100.0 * double(tick[w] + drain[w]) / double(all)
                : 0.0);
        sumTick += tick[w];
        maxTick = std::max(maxTick, tick[w]);
        sumBar += barrier[w];
        sumAll += all;
    }
    out += csprintf(
        "  load max/mean (tick): %.2f   barrier-wait fraction: "
        "%.1f%%\n",
        sumTick ? double(maxTick) * double(W) / double(sumTick) : 0.0,
        sumAll ? 100.0 * double(sumBar) / double(sumAll) : 0.0);

    // ----- per-window wall imbalance ---------------------------------
    out += "\nper-window wall imbalance (max/mean worker tick):\n";
    for (const auto &e : cap.epochs) {
        std::uint64_t s = 0, m = 0;
        for (std::size_t w = 0; w < e.tickUs.size(); w++) {
            s += e.tickUs[w];
            m = std::max(m, e.tickUs[w]);
        }
        out += csprintf(
            "  cycle %8llu  window %6llu  imbalance %.2f\n",
            (unsigned long long)e.cycle, (unsigned long long)e.window,
            s ? double(m) * double(e.tickUs.size()) / double(s)
              : 0.0);
    }

    // ----- hottest routers (deterministic tick weights) --------------
    std::uint64_t total = 0;
    for (auto w : cap.weights)
        total += w;
    std::vector<sim::NodeId> order(cap.weights.size());
    for (std::size_t r = 0; r < order.size(); r++)
        order[r] = sim::NodeId(r);
    std::stable_sort(order.begin(), order.end(),
                     [&](sim::NodeId a, sim::NodeId b) {
                         return cap.weights[std::size_t(a)] >
                                cap.weights[std::size_t(b)];
                     });
    const auto top = std::min(order.size(), kTopRouters);
    out += csprintf(
        "\nhottest routers by cycles ticked (top %zu of %zu):\n", top,
        order.size());
    for (std::size_t i = 0; i < top; i++) {
        const sim::NodeId r = order[i];
        out += csprintf(
            "  router %4d  %-12s  %10llu ticks  %5.1f%%\n", int(r),
            coordsOf(lat, r).c_str(),
            (unsigned long long)cap.weights[std::size_t(r)],
            total ? 100.0 * double(cap.weights[std::size_t(r)]) /
                        double(total)
                  : 0.0);
    }

    // ----- partition quality (deterministic verdict) -----------------
    out += csprintf(
        "\npartition quality (planes split, %zu analysis workers):\n",
        blockW.size());
    std::size_t heaviest = 0;
    for (std::size_t b = 0; b < blockW.size(); b++) {
        out += csprintf(
            "  worker %zu  routers [%4d,%4d)  weight %5.1f%%\n", b,
            int(blocks[b].routerLo), int(blocks[b].routerHi),
            total ? 100.0 * double(blockW[b]) / double(total) : 0.0);
        if (blockW[b] > blockW[heaviest])
            heaviest = b;
    }
    out += csprintf("weight_imbalance %.4f\n",
                    weightImbalance(cap.weights, lat, kReportWorkers));

    double maxShare = 0.0;
    const auto cuts = weightedCuts(cap.weights,
                                   int(blockW.size()), &maxShare);
    std::string cutStr;
    for (std::size_t i = 0; i < cuts.size(); i++)
        cutStr += csprintf("%s%d", i ? ", " : "", int(cuts[i]));
    out += csprintf(
        "verdict: planes split puts %.1f%% of tick weight on worker "
        "%zu",
        total ? 100.0 * double(blockW[heaviest]) / double(total)
              : 0.0,
        heaviest);
    if (!cuts.empty()) {
        out += csprintf("; a weighted split would cut after "
                        "router%s %s (max share %.1f%%)",
                        cuts.size() > 1 ? "s" : "", cutStr.c_str(),
                        100.0 * maxShare);
    }
    out += ".\n";
    return out;
}

Capture
parseStream(std::istream &in)
{
    Capture cap;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line.front() != '{')
            continue;   // Not a record (e.g. text around a "-" stream).
        if (line.back() != '}') {
            throw std::invalid_argument(csprintf(
                "profile stream line %zu: record is not closed "
                "(truncated stream?)", lineno));
        }
        if (line.find("\"type\": \"worker_window\"") !=
            std::string::npos) {
            Epoch e;
            e.cycle = sim::Cycle(requireU64(line, lineno, "cycle"));
            e.window = sim::Cycle(requireU64(line, lineno, "window"));
            const std::uint64_t workers =
                requireU64(line, lineno, "workers");
            if (workers < 1 || workers > 512) {
                throw std::invalid_argument(csprintf(
                    "profile stream line %zu: \"workers\" is %llu, "
                    "outside [1, 512]", lineno,
                    (unsigned long long)workers));
            }
            if (cap.workers && int(workers) != cap.workers) {
                throw std::invalid_argument(csprintf(
                    "profile stream line %zu: \"workers\" is %llu, "
                    "earlier lines had %d", lineno,
                    (unsigned long long)workers, cap.workers));
            }
            cap.workers = int(workers);
            for (auto [key, arr] :
                 {std::pair{"tick_us", &e.tickUs},
                  std::pair{"drain_us", &e.drainUs},
                  std::pair{"barrier_us", &e.barrierUs},
                  std::pair{"idle_us", &e.idleUs}}) {
                *arr = requireArray(line, lineno, key);
                if (arr->size() != workers) {
                    throw std::invalid_argument(csprintf(
                        "profile stream line %zu: \"%s\" has %zu "
                        "entries for %llu workers", lineno, key,
                        arr->size(), (unsigned long long)workers));
                }
            }
            cap.cycles = std::max(cap.cycles, e.cycle);
            cap.epochs.push_back(std::move(e));
        } else if (line.find("\"type\": \"weight_heatmap\"") !=
                   std::string::npos) {
            const auto weights = requireArray(line, lineno, "weights");
            const auto cycle =
                sim::Cycle(requireU64(line, lineno, "cycle"));
            if (!cap.weights.empty() &&
                weights.size() != cap.weights.size()) {
                throw std::invalid_argument(csprintf(
                    "profile stream line %zu: %zu router weights, "
                    "earlier lines had %zu", lineno, weights.size(),
                    cap.weights.size()));
            }
            // Deltas attach to the worker_window of the same cycle
            // (emitted immediately before) and telescope into the
            // end-of-run totals.
            for (auto &e : cap.epochs) {
                if (e.cycle == cycle && e.weights.empty())
                    e.weights = weights;
            }
            cap.weights.resize(weights.size(), 0);
            for (std::size_t r = 0; r < weights.size(); r++)
                cap.weights[r] += weights[r];
        }
    }
    if (cap.epochs.empty() && cap.weights.empty()) {
        throw std::runtime_error(
            "no worker_window / weight_heatmap records found (was "
            "the stream written with prof.enable=true?)");
    }
    return cap;
}

} // namespace pdr::prof
