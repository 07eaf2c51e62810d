/**
 * @file
 * The traced per-layer tier of pdr_bench (`--trace 1`).
 *
 * Times calls into each layer from outside, through public entry
 * points only: exec (SweepRunner::run, or api::findSaturation as one
 * span), api (runSimulation), par
 * (ParallelStepper::stepTo at 1 / 2 / 4 workers), net (a serial cycle
 * driven by hand through tickSources / tickRouters / tickSinks /
 * skipIdle, 1 cycle in 16 timed), router (per-router tickRouters(r,
 * r + 1) on sampled cycles plus routerTotals() deltas), arb (the
 * bitmask allocators on pre-generated request streams) and the
 * telem / prof / audit observers (interleaved on/off segments).
 *
 * Spans are kept in memory -- workload -> point / probe / segment ->
 * phase -> sampled router tick -- and written at exit as Chrome
 * trace-event JSON to benchmark/out/trace.<workload>.json; each
 * layer's self time (span minus children) is printed beside the
 * metrics.  Every simulated total the traced tiers produce is checked
 * against an untraced run of the same segment.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"
#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/thread_pool.hh"
#include "par/stepper.hh"
#include "prof/profiler.hh"
#include "prof/report.hh"
#include "telem/telemetry.hh"

using namespace pdr;

namespace pdrbench {

namespace {

/** One cycle in kSampleEvery is timed by the net / router tiers. */
constexpr std::uint64_t kSampleEvery = 16;

// Segment lengths in router-cycles, so that every topology does about
// the same amount of work per segment.
constexpr double kNetRouterCycles = 128e3;   //!< Per segment.
constexpr int kNetSegments = 4;
constexpr double kParRouterCycles = 256e3;
constexpr double kPairRouterCycles = 128e3;
/** Untimed cycles before any segment (the network fills up). */
constexpr double kWarmCycles = 2000;
/** Shares of --seconds for the tiers that repeat until time is up. */
constexpr double kParShare = 0.2;
constexpr double kPairShare = 0.1;
constexpr double kArbShare = 0.05;
/** Rounds per allocator stream (fixed: the checksums depend on it). */
constexpr int kArbRounds = 50000;

int
threadTid()
{
    static std::atomic<int> next{1};
    thread_local int tid = next++;
    return tid;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out;
}

/** Everything the tiers share. */
struct Ctx
{
    const Options &opt;
    const api::Experiment &exp;
    Tracer &tr;
    Outcome &out;
    Tracer::Id root;

    /** Segment length for `router_cycles` of work on `routers`;
     *  smoke runs take a quarter. */
    sim::Cycle
    cycles(double router_cycles, int routers) const
    {
        double scale = opt.smoke ? 0.25 : 1.0;
        return std::max<sim::Cycle>(
            64, sim::Cycle(router_cycles * scale / routers));
    }

    sim::Cycle
    warm() const
    {
        return sim::Cycle(kWarmCycles * (opt.smoke ? 0.25 : 1.0));
    }
};

/** Run fn(rep) until `budget` seconds are spent: at least 3 times, or
 *  once in a smoke run. */
template <typename Fn>
void
repeatFor(const Ctx &c, double share, Fn &&fn)
{
    const int min_reps = c.opt.smoke ? 1 : 3;
    const auto t0 = Clock::now();
    for (int rep = 0;
         rep < min_reps || secondsSince(t0) < share * c.opt.seconds; rep++)
        fn(rep);
}

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * v.size()));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

int
routersOf(const api::SimConfig &cfg)
{
    return cfg.net.makeLattice().numRouters();
}

bool
sameState(const net::Network &a, const net::Network &b)
{
    return a.now() == b.now() && a.deliveredFlits() == b.deliveredFlits() &&
           sameStats(a.routerTotals(), b.routerTotals());
}

/** runSimulation with one api span per call (runs on pool workers). */
exec::SweepRunner::RunFn
tracedRun(Ctx &c, Tracer::Id parent)
{
    return [&c, parent](const api::SimConfig &cfg) {
        const double t0 = c.tr.now();
        api::SimResults r = api::runSimulation(cfg);
        c.tr.add(csprintf("runSimulation %s %s %s @%.3f",
                          api::params::get(cfg, "router.model").c_str(),
                          cfg.net.routing.c_str(),
                          cfg.net.pattern.c_str(),
                          cfg.net.offeredFraction()),
                 "api", parent, t0, c.tr.now());
        return r;
    };
}

/** exec: one traced pass of the sweep.  Returns the knee load: the
 *  representative curve's first load past saturation. */
double
execSweep(Ctx &c)
{
    const Workload &w = *c.opt.workload;
    exec::SweepOptions so;
    so.threads = w.threads;
    so.baseSeed = c.opt.seed;
    const Tracer::Id span = c.tr.begin("SweepRunner::run", "exec", c.root);
    const auto t0 = Clock::now();
    exec::SweepResults res =
        exec::SweepRunner(so).run(c.exp.points(), tracedRun(c, span));
    const double wall = secondsSince(t0);
    c.tr.end(span);

    std::vector<double> point_walls;
    double busy = 0.0, router_cycles = 0.0;
    for (const auto &p : res.points) {
        c.out.check(p.ok, "point '" + p.label + "' threw: " + p.error);
        point_walls.push_back(p.wallMs / 1e3);
        busy += p.wallMs / 1e3;
        router_cycles += double(p.res.cycles) * routersOf(p.cfg);
    }
    c.out.add("exec.point_wall_p50_s", median(point_walls), "s");
    c.out.add("exec.point_wall_max_s",
              *std::max_element(point_walls.begin(), point_walls.end()),
              "s");
    c.out.add("exec.pool_util", busy / (res.threads * res.wallMs / 1e3),
              "ratio");
    c.out.add("exec.router_cycles_per_s", router_cycles / wall,
              "router-cycles/s");
    const std::string ref = readFile(referencePath(c.opt, c.opt.seed, "csv"));
    if (!ref.empty()) {
        c.out.check(res.toTable().toCsv() == ref,
                    "traced sweep differs from the reference");
    }

    auto rep = curvePoints(res, w.curve);
    if (rep.empty())
        throw std::invalid_argument(csprintf("no curve '%s'", w.curve));
    for (const auto *p : rep) {
        if (!belowSaturation(p->res, rep.front()->res.avgLatency))
            return p->res.offeredFraction;
    }
    return rep.back()->res.offeredFraction;
}

/**
 * exec for a saturation search: one span around api::findSaturation.
 * The search is one operation whose probes stay inside the library, so
 * its point wall is the search's wall, and on a 1-thread pool its
 * utilisation is 1.  The estimate must equal the reference.  Returns
 * the knee load (the estimate plus the tolerance).
 */
double
execFindSat(Ctx &c)
{
    const Tracer::Id span = c.tr.begin("findSaturation", "exec", c.root);
    const auto t0 = Clock::now();
    const double sat =
        api::findSaturation(representative(c.opt, c.exp, 0.02),
                            kLatencyLimit, kTolerance);
    const double wall = secondsSince(t0);
    c.tr.end(span);
    c.out.add("exec.point_wall_p50_s", wall, "s");
    c.out.add("exec.point_wall_max_s", wall, "s");
    c.out.add("exec.pool_util", 1.0, "ratio");

    const std::string got = csprintf("%.6f\n", sat);
    const std::string ref = readFile(referencePath(c.opt, c.opt.seed, "txt"));
    c.out.check(sat > 0.0 && (ref.empty() || got == ref),
                "traced saturation " + got + " differs from reference " +
                    ref);
    return sat + kTolerance;
}

/** Router-cycles simulated and the host seconds they took. */
struct Work
{
    double routerCycles = 0.0;
    double seconds = 0.0;
};

/** api: single runSimulation calls on the representative curve, the
 *  zero-load probe and one just past the knee.  Returns their work. */
Work
apiTier(Ctx &c, double knee)
{
    const Tracer::Id span = c.tr.begin("api probes", "api", c.root);
    Work work;
    auto probe = [&](const char *name, double load) {
        const api::SimConfig cfg = representative(c.opt, c.exp, load);
        const double t0 = c.tr.now();
        const api::SimResults r = api::runSimulation(cfg);
        const double t1 = c.tr.now();
        c.tr.add(csprintf("%s @%.3f", name, load), "api", span, t0, t1);
        work.routerCycles += double(r.cycles) * routersOf(cfg);
        work.seconds += t1 - t0;
        return t1 - t0;
    };
    c.out.add("api.zero_load_run_s", probe("zero-load probe", 0.02), "s");
    c.out.add("api.knee_run_s", probe("knee probe", knee), "s");
    c.tr.end(span);
    return work;
}

/**
 * A warmed network on the representative curve's saturated load, with
 * a stepper and optional observers.  Member order is destruction order
 * in reverse: telemetry, profiler, stepper, network.
 */
struct Live
{
    std::unique_ptr<net::Network> net;
    std::unique_ptr<par::ParallelStepper> stepper;
    std::unique_ptr<prof::Profiler> prof;
    std::unique_ptr<telem::Telemetry> tel;

    double
    segment(sim::Cycle cycles)
    {
        const auto t0 = Clock::now();
        stepper->stepTo(net->now() + cycles, tel.get());
        return secondsSince(t0);
    }
};

struct Observers
{
    bool telem = false;
    bool prof = false;
    bool audit = false;
};

Live
makeLive(const Ctx &c, int workers, Observers obs = {})
{
    api::SimConfig cfg = representative(c.opt, c.exp, c.opt.workload->sat);
    cfg.net.warmup = 0;
    cfg.net.samplePackets = 1u << 30;   // The sample never ends.
    cfg.net.audit = obs.audit;
    Live l;
    l.net = std::make_unique<net::Network>(cfg.net);
    par::ParConfig pc;
    pc.workers = workers;
    pc.scheme = par::schemeFromString(cfg.parScheme);
    l.stepper = std::make_unique<par::ParallelStepper>(*l.net, pc);
    l.stepper->stepTo(c.warm());
    if (obs.prof) {
        l.prof = std::make_unique<prof::Profiler>(*l.net,
                                                  l.stepper->workers());
        l.stepper->attachProfiler(l.prof.get());
    }
    if (obs.telem || obs.prof) {
        telem::Config tc;
        tc.enable = obs.telem;
        tc.interval = 1000;
        tc.out = "/dev/null";       // Full emission path, discarded.
        l.tel = std::make_unique<telem::Telemetry>(tc, *l.net,
                                                   l.prof.get());
    }
    return l;
}

/** par: the scaling curve at 1 / 2 / 4 workers, the profiler's view
 *  of one partitioned run, and the workload's effective W. */
void
parTier(Ctx &c)
{
    const Tracer::Id span = c.tr.begin("par scaling", "par", c.root);
    std::vector<Live> gang;
    for (int w : {1, 2, 4})
        gang.push_back(makeLive(c, w));
    const sim::Cycle seg =
        c.cycles(kParRouterCycles, gang[0].net->lattice().numRouters());
    std::vector<std::vector<double>> walls(gang.size());
    repeatFor(c, kParShare, [&](int rep) {
        // Rotate which worker count runs first.
        for (std::size_t k = 0; k < gang.size(); k++) {
            std::size_t i = (rep + k) % gang.size();
            const double t0 = c.tr.now();
            walls[i].push_back(gang[i].segment(seg));
            c.tr.add(csprintf("stepTo w%d", gang[i].stepper->workers()),
                     "par", span, t0, c.tr.now());
        }
    });
    c.out.check(sameState(*gang[0].net, *gang[1].net) &&
                    sameState(*gang[0].net, *gang[2].net),
                "par: 1 / 2 / 4 workers diverged");

    std::vector<double> cps;
    for (std::size_t i = 0; i < gang.size(); i++) {
        cps.push_back(double(seg) / median(walls[i]));
        c.out.add(csprintf("par.cycles_per_s_w%d", 1 << i), cps[i],
                  "cycles/s");
    }
    for (std::size_t i = 1; i < gang.size(); i++) {
        c.out.add(csprintf("par.speedup_w%d", 1 << i), cps[i] / cps[0],
                  "x");
        c.out.add(csprintf("par.efficiency_w%d", 1 << i),
                  cps[i] / cps[0] / gang[i].stepper->workers(), "ratio");
    }
    c.out.add("par.cross_channels", double(gang[2].stepper->crossChannels()),
              "count");
    gang.clear();

    // The profiler's capture of a fixed-horizon 4-worker run.
    api::SimConfig cfg = representative(c.opt, c.exp, c.opt.workload->sat);
    cfg.mode = "fixed";
    cfg.horizon = 4 * seg;
    cfg.parWorkers = 4;
    cfg.prof.enable = true;
    const double t0 = c.tr.now();
    const api::SimResults res = api::runSimulation(cfg);
    c.tr.add("runSimulation prof w4", "par", span, t0, c.tr.now());
    std::uint64_t barrier = 0, total = 0;
    for (const auto &e : res.prof->epochs) {
        for (std::size_t w = 0; w < e.tickUs.size(); w++) {
            barrier += e.barrierUs[w];
            total += e.tickUs[w] + e.drainUs[w] + e.barrierUs[w] +
                     e.idleUs[w];
        }
    }
    c.out.add("par.barrier_frac", ratio(barrier, total), "ratio");
    c.out.add("par.tick_imbalance",
              prof::weightImbalance(res.prof->weights,
                                    cfg.net.makeLattice(), 4),
              "ratio");

    // W as the workload runs it: resolveWorkers clamps the request
    // inside a T-thread sweep pool.
    cfg = representative(c.opt, c.exp, c.opt.workload->lo);
    int effective = 0;
    exec::ThreadPool pool(c.opt.workload->threads);
    pool.submit([&] {
        net::Network network(cfg.net);
        par::ParConfig pc;
        pc.workers = par::resolveWorkers(cfg.parWorkers);
        pc.scheme = par::schemeFromString(cfg.parScheme);
        effective = par::ParallelStepper(network, pc).workers();
    });
    pool.wait();
    c.out.add("par.workers_eff", effective, "count");
    c.tr.end(span);
}

struct SegmentWalls
{
    double traced = 0.0;
    double untraced = 0.0;
};

/**
 * net + router at one load: a serial segment driven by hand, timed on
 * one cycle in kSampleEvery, against an untraced Network::stepTo over
 * the same cycles of an identical network; kNetSegments such pairs,
 * alternating which side runs first.  Sampled cycles alternate between
 * timing whole phases (the net.* shares) and timing each router's tick
 * (router.tick_ns_*), so neither distorts the other.
 */
void
netRouterTier(Ctx &c, const char *suffix, double load, SegmentWalls &walls)
{
    const api::SimConfig cfg = representative(c.opt, c.exp, load);
    net::Network a(cfg.net), b(cfg.net);
    const sim::NodeId N = a.lattice().numNodes();
    const sim::NodeId R = a.lattice().numRouters();
    a.stepTo(c.warm());
    b.stepTo(c.warm());
    const sim::Cycle seg = c.cycles(kNetRouterCycles, R);
    const Tracer::Id span = c.tr.begin(
        csprintf("net/router .%s @%.3f", suffix, load), "net", c.root);

    std::vector<std::uint64_t> ticks(R, 0);
    a.profileTickWeights(&ticks);
    const router::RouterStats before = a.routerTotals();
    double phase[4] = {};           // skipIdle, sources, routers, sinks
    std::uint64_t phase_samples = 0, stepped = 0;
    std::vector<double> tick_ns;
    struct RouterTick
    {
        sim::NodeId r;
        double t0, t1;
    };
    std::vector<RouterTick> sampled_ticks;

    // One serial step() is tickSources + tickRouters + tickSinks +
    // finishCycle, after skipIdle (Network::stepTo's loop).
    auto hand_step = [&](sim::Cycle end, Tracer::Id parent) {
        for (;; stepped++) {
            if (stepped % kSampleEvery != 0) {
                a.skipIdle(end);
                if (a.now() >= end)
                    return;
                a.tickSources(0, N);
                a.tickRouters(0, R);
                a.tickSinks(0, N);
                a.finishCycle();
                continue;
            }
            const bool per_router = stepped / kSampleEvery % 2 == 1;
            const sim::Cycle cycle = a.now();
            double t[5];
            t[0] = c.tr.now();
            a.skipIdle(end);
            t[1] = c.tr.now();
            if (a.now() >= end)
                return;
            a.tickSources(0, N);
            t[2] = c.tr.now();
            sampled_ticks.clear();
            if (!per_router) {
                a.tickRouters(0, R);
            } else {
                for (sim::NodeId r = 0; r < R; r++) {
                    const std::uint64_t n = ticks[r];
                    const double r0 = c.tr.now();
                    a.tickRouters(r, r + 1);
                    const double r1 = c.tr.now();
                    // Only routers that were awake actually ticked.
                    if (ticks[r] != n) {
                        tick_ns.push_back(1e9 * (r1 - r0));
                        sampled_ticks.push_back({r, r0, r1});
                    }
                }
            }
            t[3] = c.tr.now();
            a.tickSinks(0, N);
            t[4] = c.tr.now();
            a.finishCycle();

            const Tracer::Id cyc =
                c.tr.add("cycle", "net", parent, t[0], t[4], int(cycle));
            c.tr.add("skipIdle", "net", cyc, t[0], t[1]);
            c.tr.add("tickSources", "net", cyc, t[1], t[2]);
            const Tracer::Id rp =
                c.tr.add("tickRouters", "router", cyc, t[2], t[3]);
            for (const auto &rt : sampled_ticks)
                c.tr.add("Router::tick", "router", rp, rt.t0, rt.t1, rt.r);
            c.tr.add("tickSinks", "net", cyc, t[3], t[4]);
            if (!per_router) {
                for (int k = 0; k < 4; k++)
                    phase[k] += t[k + 1] - t[k];
                phase_samples++;
            }
        }
    };

    for (int s = 0; s < kNetSegments; s++) {
        const sim::Cycle end = a.now() + seg;
        for (int k = 0; k < 2; k++) {
            const bool traced = (s + k) % 2 == 0;
            const double t0 = c.tr.now();
            if (traced) {
                const Tracer::Id hand =
                    c.tr.begin("hand-stepped segment", "net", span);
                hand_step(end, hand);
                c.tr.end(hand);
            } else {
                b.stepTo(end);
                c.tr.add("Network::stepTo (untraced)", "net", span, t0,
                         c.tr.now());
            }
            (traced ? walls.traced : walls.untraced) += c.tr.now() - t0;
        }
        c.out.check(sameState(a, b),
                    csprintf("net .%s: hand-stepped totals differ from "
                             "Network::stepTo", suffix));
    }
    a.profileTickWeights(nullptr);
    c.tr.end(span);

    const std::string sfx = std::string(".") + suffix;
    const double phase_sum = phase[0] + phase[1] + phase[2] + phase[3];
    const char *phases[] = {"skip", "source", "router", "sink"};
    for (int k = 0; k < 4; k++) {
        c.out.add(csprintf("net.%s_share", phases[k]) + sfx,
                  phase_sum > 0.0 ? phase[k] / phase_sum : 0.0, "ratio");
    }
    const double cycles = double(kNetSegments) * double(seg);
    c.out.add("net.stepped_frac" + sfx, double(stepped) / cycles, "ratio");
    c.out.add("net.router_ns_per_router_cycle" + sfx,
              phase_samples ? 1e9 * phase[2] / double(phase_samples * R)
                            : 0.0,
              "ns");

    const router::RouterStats after = a.routerTotals();
    std::uint64_t ticked = 0;
    for (auto n : ticks)
        ticked += n;
    const double router_cycles = double(R) * cycles;
    c.out.add("router.tick_ns_p50" + sfx, percentile(tick_ns, 50), "ns");
    c.out.add("router.tick_ns_p99" + sfx, percentile(tick_ns, 99), "ns");
    c.out.add("router.active_frac" + sfx, ticked / router_cycles, "ratio");
    c.out.add("router.spec_win_ratio" + sfx,
              ratio(after.specSaWins - before.specSaWins,
                    after.specSaAttempts - before.specSaAttempts),
              "ratio");
    c.out.add("router.spec_useful_ratio" + sfx,
              ratio(after.specSaUseful - before.specSaUseful,
                    after.specSaAttempts - before.specSaAttempts),
              "ratio");
    c.out.add("router.credit_stall_per_flit" + sfx,
              ratio(after.creditStallCycles - before.creditStallCycles,
                    after.flitsOut - before.flitsOut),
              "cycles");
    c.out.add("router.buf_occupancy_mean" + sfx,
              double(after.bufOccupancy - before.bufOccupancy) /
                  router_cycles,
              "flits");
}

/** One pre-generated allocation round (bench_alloc's stream shape:
 *  about half the input VCs bid, 60 % of output VCs free). */
struct Round
{
    std::vector<arb::SaRequest> sa;
    std::vector<arb::VaRequest> va;
    std::vector<std::uint64_t> freeVcs;
};

std::vector<Round>
makeStream(int p, int v, bool spec, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Round> stream(kArbRounds);
    for (Round &r : stream) {
        for (int in = 0; in < p; in++) {
            for (int vc = 0; vc < v; vc++) {
                if (rng.bernoulli(0.5)) {
                    r.sa.push_back({in, vc, int(rng.range(p)),
                                    spec && rng.bernoulli(0.5)});
                }
                if (rng.bernoulli(0.5)) {
                    auto mask = std::uint32_t(rng.range((1u << v) - 1) + 1);
                    r.va.push_back({in, vc, int(rng.range(p)), mask});
                }
            }
        }
        r.freeVcs.resize(p);
        for (int out = 0; out < p; out++) {
            for (int ov = 0; ov < v; ov++) {
                if (rng.bernoulli(0.6))
                    r.freeVcs[out] |= std::uint64_t(1) << ov;
            }
        }
    }
    return stream;
}

std::uint64_t
fold(std::uint64_t sum, const arb::SaGrant &g)
{
    return sum * 1099511628211ull +
           std::uint64_t(g.inPort * 4096 + g.inVc * 64 + g.outPort +
                         (g.spec ? 1 << 20 : 0));
}

std::uint64_t
fold(std::uint64_t sum, const arb::VaGrant &g)
{
    return sum * 1099511628211ull +
           std::uint64_t(((g.inPort * 64 + g.inVc) * 64 + g.outPort) * 64 +
                         g.outVc);
}

enum class ArbKind { Wormhole, Separable, Speculative, Vc };

struct ArbCase
{
    const char *metric;
    ArbKind kind;
    int p, v;
};

/** The router shapes the workloads run: p5 on the 2-D meshes, p7v4 on
 *  the 3-cube. */
const ArbCase kArbCases[] = {
    {"arb.wh_p5_ns", ArbKind::Wormhole, 5, 1},
    {"arb.sa_sep_p5v2_ns", ArbKind::Separable, 5, 2},
    {"arb.sa_spec_p5v2_ns", ArbKind::Speculative, 5, 2},
    {"arb.va_p5v2_ns", ArbKind::Vc, 5, 2},
    {"arb.sa_spec_p7v4_ns", ArbKind::Speculative, 7, 4},
    {"arb.va_p7v4_ns", ArbKind::Vc, 7, 4},
};

/** All grants of a fresh allocator over `stream`, folded. */
std::uint64_t
allocateAll(const ArbCase &k, const std::vector<Round> &stream)
{
    std::uint64_t sum = 14695981039346656037ull;
    auto run = [&](auto &alloc) {
        for (const auto &r : stream) {
            for (const auto &g : alloc.allocate(r.sa))
                sum = fold(sum, g);
        }
    };
    switch (k.kind) {
      case ArbKind::Wormhole: {
        arb::WormholeSwitchArbiter a(k.p);
        run(a);
        break;
      }
      case ArbKind::Separable: {
        arb::SeparableSwitchAllocator a(k.p, k.v);
        run(a);
        break;
      }
      case ArbKind::Speculative: {
        arb::SpeculativeSwitchAllocator a(k.p, k.v);
        run(a);
        break;
      }
      case ArbKind::Vc: {
        arb::VcAllocator a(k.p, k.v);
        for (const auto &r : stream) {
            for (const auto &g : a.allocate(r.va, r.freeVcs.data()))
                sum = fold(sum, g);
        }
        break;
      }
    }
    return sum;
}

const char *const kArbReference = "benchmark/reference/arb.txt";

/** arb: ns per allocation round; grant checksums against
 *  kArbReference.  Returns the checksum table. */
std::string
arbTier(Ctx &c)
{
    const Tracer::Id span = c.tr.begin("allocators", "arb", c.root);
    const std::size_t n = std::size(kArbCases);
    std::vector<std::vector<Round>> streams;
    for (const auto &k : kArbCases) {
        streams.push_back(makeStream(k.p, k.v,
                                     k.kind == ArbKind::Speculative,
                                     0x5A + k.p * 64 + k.v));
    }
    std::vector<std::vector<double>> ns(n);
    std::vector<std::uint64_t> sums(n);
    repeatFor(c, kArbShare, [&](int rep) {
        for (std::size_t i = 0; i < n; i++) {
            const double t0 = c.tr.now();
            const std::uint64_t sum = allocateAll(kArbCases[i], streams[i]);
            const double t1 = c.tr.now();
            c.tr.add(kArbCases[i].metric, "arb", span, t0, t1);
            ns[i].push_back(1e9 * (t1 - t0) / kArbRounds);
            c.out.check(rep == 0 || sum == sums[i],
                        csprintf("%s: grants changed between passes",
                                 kArbCases[i].metric));
            sums[i] = sum;
        }
    });
    c.tr.end(span);

    std::string table;
    for (std::size_t i = 0; i < n; i++) {
        c.out.add(kArbCases[i].metric, median(ns[i]), "ns");
        table += csprintf("%s %016llx\n", kArbCases[i].metric,
                          static_cast<unsigned long long>(sums[i]));
    }
    if (!c.opt.bless) {
        c.out.check(table == readFile(kArbReference),
                    std::string("allocator checksums differ from ") +
                        kArbReference + ":\n" + table);
    }
    return table;
}

/** telem / prof / audit: interleaved on/off segments on two live
 *  networks (both see the same heap and cache state), then a check
 *  that the observer changed nothing. */
void
overheadTier(Ctx &c)
{
    struct Pair
    {
        const char *metric;
        const char *layer;
        int workers;
        Observers on;
    };
    // The profiler's phase marks matter on the partitioned path: W=2.
    const Pair pairs[] = {
        {"telem.overhead_pct", "telem", 1, {true, false, false}},
        {"prof.overhead_pct", "prof", 2, {false, true, false}},
        {"audit.overhead_pct", "audit", 1, {false, false, true}},
    };
    for (const auto &p : pairs) {
        const Tracer::Id span =
            c.tr.begin(csprintf("%s on/off", p.layer), p.layer, c.root);
        Live off = makeLive(c, p.workers);
        Live on = makeLive(c, p.workers, p.on);
        const sim::Cycle seg =
            c.cycles(kPairRouterCycles, off.net->lattice().numRouters());
        std::vector<double> walls[2];
        repeatFor(c, kPairShare, [&](int rep) {
            // Alternate which side runs first.
            for (int k = 0; k < 2; k++) {
                const int side = (rep + k) % 2;
                const double t0 = c.tr.now();
                walls[side].push_back((side ? on : off).segment(seg));
                c.tr.add(side ? "on" : "off", p.layer, span, t0,
                         c.tr.now());
            }
        });
        c.tr.end(span);
        c.out.check(sameState(*off.net, *on.net),
                    csprintf("%s changed the simulation", p.layer));
        c.out.add(p.metric,
                  100.0 * (median(walls[1]) / median(walls[0]) - 1.0), "%");
    }
}

} // namespace

Tracer::Id
Tracer::begin(std::string name, const char *layer, Id parent, int arg)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), layer, parent, t, t, threadTid(),
                      arg});
    return Id(spans_.size() - 1);
}

void
Tracer::end(Id id)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[std::size_t(id)].t1 = t;
}

Tracer::Id
Tracer::add(std::string name, const char *layer, Id parent, double t0,
            double t1, int arg)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), layer, parent, t0, t1, threadTid(),
                      arg});
    return Id(spans_.size() - 1);
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto &s : spans_) {
        if (s.parent != kRoot)
            kids[std::size_t(s.parent)].push_back({s.t0, s.t1});
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        // Children may overlap (pool workers): subtract their union.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, reach = s.t0;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, s.t1);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        auto it = std::find_if(out.begin(), out.end(), [&](const auto &e) {
            return e.first == s.layer;
        });
        if (it == out.end())
            it = out.insert(out.end(), {s.layer, 0.0});
        it->second += (s.t1 - s.t0) - covered;
    }
    return out;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "")
           << csprintf("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                       "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                       "\"dur\": %.3f",
                       jsonEscape(s.name).c_str(), s.layer, s.tid,
                       1e6 * s.t0, 1e6 * (s.t1 - s.t0));
        if (s.arg >= 0)
            os << ", \"args\": {\"id\": " << s.arg << "}";
        os << "}";
    }
    os << "\n]}\n";
    writeFile(path, os.str());
}

Outcome
runTraced(const Options &opt)
{
    const Workload &w = *opt.workload;
    api::Experiment exp = loadExperiment(opt);
    exp.validate();
    Tracer tr;
    Outcome out;
    Ctx c{opt, exp, tr, out, tr.begin(w.name, "workload", Tracer::kRoot)};

    const double knee = w.findSat ? execFindSat(c) : execSweep(c);
    const Work probes = apiTier(c, knee);
    // A search hides its probes' cycle counts: its rate is that of the
    // same probes run alone.
    if (w.findSat) {
        out.add("exec.router_cycles_per_s",
                probes.routerCycles / probes.seconds, "router-cycles/s");
    }
    parTier(c);
    SegmentWalls walls;
    netRouterTier(c, "lo", w.lo, walls);
    netRouterTier(c, "sat", w.sat, walls);
    out.add("bench.trace_overhead_pct",
            100.0 * (walls.traced / walls.untraced - 1.0), "%");
    const std::string checksums = arbTier(c);
    overheadTier(c);
    tr.end(c.root);

    if (opt.bless && out.failed == 0) {
        writeFile(kArbReference, checksums);
        std::printf("# blessed %s\n", kArbReference);
    } else if (opt.bless) {
        std::fprintf(stderr, "pdr_bench: not blessing %s: a check "
                     "failed\n", kArbReference);
    }

    for (const auto &[layer, s] : tr.selfTimes())
        out.extra("self_s." + layer, s, "s");
    const std::string path =
        csprintf("benchmark/out/trace.%s.json", w.name);
    tr.writeChrome(path);
    std::printf("# wrote %s\n", path.c_str());
    return out;
}

} // namespace pdrbench
