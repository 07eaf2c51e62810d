/**
 * @file
 * `pdr_bench` -- the repository's benchmark program.
 *
 * Runs one workload in this process and prints every metric as
 * `<workload> <metric> <value> <unit>`, then, as the last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}.  The
 * end-to-end tier (default) repeats whole workload passes for
 * `--seconds` and reports medians; `--trace 1` runs the per-layer tier
 * instead (layers.cc).  Every output is checked: against
 * benchmark/reference/ where a reference exists for the seed, against
 * the run's first pass, and against a re-run at another worker count.
 * A run that is not correct exits with 1, and --bless then writes
 * nothing.  See benchmark/README.md for the metric catalogue.
 *
 * Usage:
 *   pdr_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--smoke] [--bless] [--rev REV]
 *
 * Paths are relative to the repository root, where run.sh starts it.
 *
 * Only public library entry points are called.  PDR_* environment
 * variables are cleared at start-up: PDR_FAST / PDR_PACKETS would
 * rescale a workload, PDR_AUDIT turns the auditor on, and PDR_THREADS /
 * PDR_PAR_WORKERS would change the T x W split.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "exec/sweep.hh"
#include "par/stepper.hh"

extern char **environ;

using namespace pdr;

namespace pdrbench {

namespace {

/**
 * The workloads.  Each is a closed-loop batch: the sweep pool has T
 * clients and a client takes the next point when its previous point
 * finishes; T x W = 4 threads in every case.  README.md says why each
 * one is here.
 */
const Workload kWorkloads[] = {
    // fig13: the paper's headline comparison, serial router core.
    {"fig13_sweep", false, 4, "specVC (2x4)", 0.05, 0.8},
    // Saturation search: network-level partitioning at T = 1.
    {"findsat16_par", true, 1, "", 0.02, 0.9},
    // 7-port, 4-VC allocators and oblivious routing; tail-bound.
    {"kary3cube_routing", false, 4, "dor", 0.1, 0.5},
    // Permutation traffic, partitioned stepping, observers live.
    {"patterns_observed", false, 2, "transpose", 0.1, 0.5},
};

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 15;

/** Fig. 13 as published: zero-load latency (cycles), saturation. */
struct PaperCurve
{
    const char *curve;
    double zeroLoad;
    double saturation;
};
const PaperCurve kFig13Paper[] = {
    {"WH (8 bufs)", 29.0, 0.40},
    {"VC (2x4)", 36.0, 0.50},
    {"specVC (2x4)", 30.0, 0.55},
};
/** Mean paper error above which the model counts as broken. */
constexpr double kPaperErrLimitPct = 20.0;

void
clearPdrEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; e++) {
        if (std::strncmp(*e, "PDR_", 4) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    }
    for (const auto &n : names)
        unsetenv(n.c_str());
}

/** User + system CPU seconds consumed by this process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');)
        cells.push_back(cell);
    return cells;
}

/** "column <name>: got <a>, expected <b>" for the first differing
 *  cell of two CSV rows. */
std::string
firstDiff(const std::string &header, const std::string &got,
          const std::string &want)
{
    auto h = splitCells(header), a = splitCells(got), b = splitCells(want);
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); i++) {
        std::string x = i < a.size() ? a[i] : "";
        std::string y = i < b.size() ? b[i] : "";
        if (x != y) {
            return "column " + (i < h.size() ? h[i] : std::to_string(i)) +
                   ": got '" + x + "', expected '" + y + "'";
        }
    }
    return "rows differ";
}

/** Mean |sim - paper| / paper over Fig. 13's six numbers, in %. */
double
paperErrPct(const exec::SweepResults &res)
{
    double sum = 0.0;
    for (const auto &pc : kFig13Paper) {
        auto pts = curvePoints(res, pc.curve);
        if (pts.empty() || !pts[0]->ok)
            return 100.0;
        double zero = pts[0]->res.avgLatency, sat = 0.0;
        for (const auto *p : pts) {
            if (p->ok && belowSaturation(p->res, zero))
                sat = p->res.offeredFraction;
        }
        std::printf("# fig13 %-13s zero-load %.1f (paper %.0f)  "
                    "saturation %.2f (paper %.2f)\n",
                    pc.curve, zero, pc.zeroLoad, sat, pc.saturation);
        sum += std::fabs(zero - pc.zeroLoad) / pc.zeroLoad +
               std::fabs(sat - pc.saturation) / pc.saturation;
    }
    return 100.0 * sum / (2.0 * std::size(kFig13Paper));
}

bool
sameResults(const api::SimResults &a, const api::SimResults &b)
{
    return a.acceptedFraction == b.acceptedFraction &&
           a.avgLatency == b.avgLatency && a.p99Latency == b.p99Latency &&
           a.drained == b.drained && a.cycles == b.cycles &&
           sameStats(a.routers, b.routers);
}

/** One timed workload pass. */
struct Pass
{
    double wall = 0.0;
    double cpu = 0.0;
    exec::SweepResults sweep;   //!< Sweep workloads.
    /** Deterministic output: the sweep's toTable() CSV, or the
     *  saturation estimate as "%.6f\n". */
    std::string table;
};

Pass
runPass(const Options &opt, const api::Experiment &exp,
        const std::vector<exec::SweepPoint> &points, std::uint64_t seed)
{
    Pass p;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    if (opt.workload->findSat) {
        api::SimConfig cfg = exp.base;
        cfg.net.seed = seed;
        double sat = api::findSaturation(cfg, kLatencyLimit, kTolerance);
        p.table = csprintf("%.6f\n", sat);
    } else {
        exec::SweepOptions so;
        so.threads = opt.workload->threads;
        so.baseSeed = seed;
        p.sweep = exec::SweepRunner(so).run(points);
        p.table = p.sweep.toTable().toCsv();
    }
    p.wall = secondsSince(t0);
    p.cpu = cpuSeconds() - cpu0;
    return p;
}

/**
 * Check a pass row by row against the reference (if any) and the run's
 * first pass (if this is a later one): one operation per sweep point,
 * or one per saturation search.
 */
void
checkPass(const Options &opt, const Pass &p, const std::string &ref,
          const std::string &first, Outcome &out)
{
    const char *name = opt.workload->name;
    if (opt.workload->findSat) {
        double sat = std::strtod(p.table.c_str(), nullptr);
        bool ok = sat > 0.0 && (ref.empty() || p.table == ref) &&
                  (first.empty() || p.table == first);
        out.check(ok, csprintf("%s saturation %s (reference %s, first "
                               "pass %s)", name, p.table.c_str(),
                               ref.c_str(), first.c_str()));
        return;
    }
    // rows[0] is the CSV header; point i is rows[i + 1].
    auto rows = splitLines(p.table);
    auto refRows = splitLines(ref), firstRows = splitLines(first);
    bool reported = false;
    for (std::size_t i = 0; i < p.sweep.points.size(); i++) {
        const auto &pt = p.sweep.points[i];
        const std::string &row = rows[i + 1];
        std::string why;
        if (!pt.ok)
            why = "threw: " + pt.error;
        else if (!ref.empty() && i + 1 >= refRows.size())
            why = "missing from the reference";
        else if (!ref.empty() && refRows[i + 1] != row)
            why = firstDiff(rows[0], row, refRows[i + 1]) + " (reference)";
        else if (!first.empty() && firstRows[i + 1] != row)
            why = firstDiff(rows[0], row, firstRows[i + 1]) +
                  " (first pass)";
        out.attempted++;
        if (why.empty())
            continue;
        out.failed++;
        // Only the first differing point of a pass is printed.
        if (!reported) {
            std::fprintf(stderr, "pdr_bench: %s point %zu '%s': %s\n",
                         name, i, pt.label.c_str(), why.c_str());
        }
        reported = true;
    }
}

/**
 * Checks that need no reference, once per run on the first pass: every
 * curve's lowest load runs below saturation, and a low-load point
 * re-run alone at another worker count reproduces its result exactly
 * (the representative curve's lowest point of a sweep; the zero-load
 * probe of a saturation search).
 */
void
checkModel(const Options &opt, const api::Experiment &exp,
           const Pass &first, Outcome &out)
{
    const char *name = opt.workload->name;
    api::SimConfig cfg;
    api::SimResults expect;
    if (opt.workload->findSat) {
        cfg = representative(opt, exp, 0.02);
        expect = api::runSimulation(cfg);
    } else {
        for (const auto &c : exp.curves) {
            auto pts = curvePoints(first.sweep, c.label);
            bool ok = !pts.empty() && pts[0]->ok &&
                      !pts[0]->res.saturated();
            out.check(ok, csprintf("%s curve '%s' saturated at its "
                                   "lowest load", name, c.label.c_str()));
        }
        auto rep = curvePoints(first.sweep, opt.workload->curve);
        if (!out.check(!rep.empty() && rep[0]->ok,
                       csprintf("%s has no curve '%s'", name,
                                opt.workload->curve)))
            return;
        cfg = rep[0]->cfg;
        expect = rep[0]->res;
    }
    cfg.parWorkers = cfg.parWorkers == 1 ? 2 : 1;
    out.check(sameResults(api::runSimulation(cfg), expect),
              csprintf("%s load %.3f differs at par.workers=%d", name,
                       cfg.net.offeredFraction(), cfg.parWorkers));
}

/** Experiment::load + validate + points(), then build and tear down a
 *  network and stepper per point; returns the seconds taken. */
double
timeSetup(const Options &opt, api::Experiment &exp,
          std::vector<exec::SweepPoint> &points)
{
    const auto t0 = Clock::now();
    exp = loadExperiment(opt);
    exp.validate();
    points = exp.points();
    for (const auto &p : points) {
        net::Network network(p.cfg.net);
        par::ParConfig pc;
        pc.workers = par::resolveWorkers(p.cfg.parWorkers);
        pc.scheme = par::schemeFromString(p.cfg.parScheme);
        par::ParallelStepper stepper(network, pc);
    }
    return secondsSince(t0);
}

Outcome
runEndToEnd(const Options &opt)
{
    const Workload &w = *opt.workload;
    Outcome out;

    api::Experiment exp;
    std::vector<exec::SweepPoint> points;
    std::vector<double> setup;
    for (int i = 0; i < (opt.smoke ? 1 : kSetupReps); i++)
        setup.push_back(timeSetup(opt, exp, points));

    // Whole passes on --seed until the next one would overrun --seconds.
    const char *ext = w.findSat ? "txt" : "csv";
    const std::string path = referencePath(opt, opt.seed, ext);
    const std::string ref = opt.bless ? "" : readFile(path);
    std::vector<double> walls, cpus;
    Pass first;
    const auto start = Clock::now();
    do {
        Pass p = runPass(opt, exp, points, opt.seed);
        checkPass(opt, p, ref, first.table, out);
        walls.push_back(p.wall);
        cpus.push_back(p.cpu);
        if (walls.size() == 1)
            first = std::move(p);
    } while (!opt.smoke && !opt.bless &&
             secondsSince(start) + median(walls) <= opt.seconds);

    checkModel(opt, exp, first, out);
    if (w.findSat) {
        out.extra("saturation", std::strtod(first.table.c_str(), nullptr),
                  "fraction");
    } else if (std::strcmp(w.name, "fig13_sweep") == 0) {
        double err = paperErrPct(first.sweep);
        out.extra("paper_err_pct", err, "%");
        out.check(err <= kPaperErrLimitPct,
                  csprintf("fig13 model error %.1f%% exceeds %.0f%%", err,
                           kPaperErrLimitPct));
    }
    if (opt.bless && out.failed == 0) {
        writeFile(path, first.table);
        std::printf("# blessed %s\n", path.c_str());
    } else if (opt.bless) {
        std::fprintf(stderr, "pdr_bench: not blessing %s: %llu check(s) "
                     "failed\n", path.c_str(),
                     static_cast<unsigned long long>(out.failed));
    }

    out.add("wall_s", median(walls), "s");
    out.add("setup_s", median(setup), "s");
    out.add("cpu_s", median(cpus), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    std::printf("# %s passes=%zu reference=%s\n", w.name, walls.size(),
                ref.empty() ? "none" : path.c_str());
    return out;
}

/** Print the metric lines and the JSON line; returns `correct`. */
bool
report(const Options &opt, const Outcome &out)
{
    const char *name = opt.workload->name;
    std::printf("# %s seed=%llu trace=%d nproc=%u rev=%s build=%s\n",
                name, static_cast<unsigned long long>(opt.seed),
                int(opt.trace), std::thread::hardware_concurrency(),
                opt.rev.c_str(), PDR_BENCH_BUILD_TYPE);
    for (const auto *list : {&out.metrics, &out.extras}) {
        for (const auto &m : *list) {
            std::printf("%s %s %.10g %s\n", name, m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
    std::printf("%s failed_frac %.10g ratio\n", name,
                out.attempted ? double(out.failed) / out.attempted : 1.0);

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::string json = csprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); i++) {
        const auto &m = out.metrics[i];
        json += csprintf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                         i ? ", " : "", m.name.c_str(), m.value,
                         m.unit.c_str());
    }
    std::printf("%s}}\n", json.c_str());
    return correct;
}

int
usage()
{
    std::fprintf(stderr,
        "usage: pdr_bench --workload NAME [--seed N] [--seconds S]\n"
        "                 [--trace 0|1] [--smoke] [--bless] [--rev REV]\n"
        "workloads:");
    for (const auto &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

bool
Outcome::check(bool ok, const std::string &what)
{
    attempted++;
    if (!ok) {
        failed++;
        std::fprintf(stderr, "pdr_bench: check failed: %s\n",
                     what.c_str());
    }
    return ok;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream f(path);
    f << text;
    if (!f)
        throw std::runtime_error("cannot write '" + path + "'");
}

std::string
referencePath(const Options &opt, std::uint64_t seed, const char *ext)
{
    return csprintf("benchmark/reference/%s.seed%llu.%s",
                    opt.workload->name,
                    static_cast<unsigned long long>(seed), ext);
}

api::Experiment
loadExperiment(const Options &opt)
{
    return api::Experiment::load(
        std::string("benchmark/workloads/") + opt.workload->name + ".exp");
}

api::SimConfig
representative(const Options &opt, const api::Experiment &exp,
               double load)
{
    api::SimConfig cfg = exp.base;
    const std::string curve = opt.workload->curve;
    if (!curve.empty()) {
        auto c = std::find_if(exp.curves.begin(), exp.curves.end(),
                              [&](const auto &c) {
                                  return c.label == curve;
                              });
        if (c == exp.curves.end())
            throw std::invalid_argument("no curve '" + curve + "'");
        for (const auto &[key, value] : c->overrides)
            api::params::set(cfg, key, value);
    }
    cfg.net.seed = opt.seed;
    cfg.net.setOfferedFraction(load);
    return cfg;
}

bool
belowSaturation(const api::SimResults &r, double zero_load)
{
    return !r.saturated() && r.avgLatency <= kLatencyLimit * zero_load;
}

std::vector<const exec::PointResult *>
curvePoints(const exec::SweepResults &res, const std::string &curve)
{
    std::vector<const exec::PointResult *> out;
    for (const auto &p : res.points) {
        if (p.label.rfind(curve + "@", 0) == 0 &&
            p.label.find('@', curve.size() + 1) == std::string::npos)
            out.push_back(&p);
    }
    std::sort(out.begin(), out.end(), [](auto *a, auto *b) {
        return a->cfg.net.injectionRate < b->cfg.net.injectionRate;
    });
    return out;
}

bool
sameStats(const router::RouterStats &x, const router::RouterStats &y)
{
    return x.flitsIn == y.flitsIn && x.flitsOut == y.flitsOut &&
           x.headGrants == y.headGrants && x.vaGrants == y.vaGrants &&
           x.specSaAttempts == y.specSaAttempts &&
           x.specSaWins == y.specSaWins &&
           x.specSaUseful == y.specSaUseful &&
           x.creditStallCycles == y.creditStallCycles &&
           x.bufOccupancy == y.bufOccupancy;
}

} // namespace pdrbench

int
main(int argc, char **argv)
{
    using namespace pdrbench;
    clearPdrEnv();

    Options opt;
    std::string workload;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "pdr_bench: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            opt.trace = value() == "1";
        else if (arg == "--smoke")
            opt.smoke = true;
        else if (arg == "--bless")
            opt.bless = true;
        else if (arg == "--rev")
            opt.rev = value();
        else
            return usage();
    }
    for (const auto &w : kWorkloads) {
        if (workload == w.name)
            opt.workload = &w;
    }
    if (!opt.workload || !(opt.seconds > 0.0))
        return usage();
    // findSaturation sizes its own sweep pool from PDR_THREADS.
    setenv("PDR_THREADS", std::to_string(opt.workload->threads).c_str(),
           1);

    // An incorrect run still prints its result, then fails, so that
    // run.sh --bless and the ledger stop at it.
    try {
        return report(opt, opt.trace ? runTraced(opt) : runEndToEnd(opt))
                   ? 0
                   : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pdr_bench: %s\n", e.what());
        return 1;
    }
}
