/**
 * @file
 * Pipeline explorer: apply the delay model to your own router.
 *
 * Give it a flow-control method, port/VC counts, flit width, routing
 * range and clock period, and it prints the atomic-module delays and
 * the pipeline the model prescribes (the paper's Section-3 design
 * methodology as a command-line tool).
 *
 *   $ ./pipeline_explorer wh|vc|spec [p] [v] [w] [clk_tau4] [rv|rp|rpv]
 *
 * Passing "all" for [v] sweeps v in {1,2,4,8,16,32} and prints one
 * summary line per VC count.  p must be >= 2, v and w >= 1, and
 * clk_tau4 >= 1 (a shorter clock would cut each module into
 * thousands of stages).  A malformed argument prints `error: ...`
 * naming it and exits 1.
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "example_main.hh"
#include "pipeline/designer.hh"

using namespace pdr;
using namespace pdr::delay;
using namespace pdr::pipeline;

namespace {

int
run(int argc, char **argv)
{
    RouterParams prm;
    prm.kind = RouterKind::SpecVirtualChannel;
    prm.p = 5;
    prm.v = 2;
    prm.w = 32;
    prm.range = RoutingRange::Rv;
    double clk_tau4 = 20.0;

    example::checkArgCount(argc, 6,
                           "pipeline_explorer wh|vc|spec [p] [v|all] "
                           "[w] [clk_tau4] [rv|rp|rpv]");
    if (argc > 1) {
        if (!std::strcmp(argv[1], "wh"))
            prm.kind = RouterKind::Wormhole;
        else if (!std::strcmp(argv[1], "vc"))
            prm.kind = RouterKind::VirtualChannel;
        else if (!std::strcmp(argv[1], "spec"))
            prm.kind = RouterKind::SpecVirtualChannel;
        else
            badValue("router kind", argv[1], "wh, vc or spec");
    }
    bool sweep_v = false;
    if (argc > 2)
        prm.p = int(parseInt("p", argv[2], 2, INT_MAX));
    if (argc > 3) {
        if (!std::strcmp(argv[3], "all"))
            sweep_v = true;
        else
            prm.v = int(parseInt("v", argv[3], 1, INT_MAX));
    }
    if (argc > 4)
        prm.w = int(parseInt("w", argv[4], 1, INT_MAX));
    if (argc > 5) {
        clk_tau4 = parseDouble("clk_tau4", argv[5]);
        if (clk_tau4 < 1.0)
            badValue("clk_tau4", argv[5], "a clock period >= 1 tau4");
    }
    if (argc > 6) {
        if (!std::strcmp(argv[6], "rv"))
            prm.range = RoutingRange::Rv;
        else if (!std::strcmp(argv[6], "rp"))
            prm.range = RoutingRange::Rp;
        else if (!std::strcmp(argv[6], "rpv"))
            prm.range = RoutingRange::Rpv;
        else
            badValue("routing range", argv[6], "rv, rp or rpv");
    }
    if (prm.kind == RouterKind::Wormhole)
        prm.v = 1;

    Tau clk = fromTau4(clk_tau4);

    if (sweep_v) {
        // One design per VC count.  Wormhole routers have no VCs, so
        // their "sweep" is v=1 only.
        std::vector<int> vcs{1, 2, 4, 8, 16, 32};
        if (prm.kind == RouterKind::Wormhole)
            vcs = {1};
        std::string axis;
        for (std::size_t i = 0; i < vcs.size(); i++)
            axis += csprintf(i ? ",%d" : "%d", vcs[i]);
        std::printf("router: %s, p=%d, v in {%s}, w=%d, clk=%.1f "
                    "tau4, range=%s\n\n", toString(prm.kind), prm.p,
                    axis.c_str(), prm.w, clk_tau4,
                    toString(prm.range));
        for (int v : vcs) {
            RouterParams sp = prm;
            sp.v = v;
            auto path = criticalPath(sp);
            auto strict = design(path, clk, FitPolicy::Strict);
            auto relaxed = design(path, clk, FitPolicy::Relaxed);
            std::printf("v=%-3d unpipelined %6.1f tau4 | strict %d "
                        "stages | relaxed %d stages\n", v,
                        criticalPathTotal(path).inTau4(), strict.depth(),
                        relaxed.depth());
        }
        return 0;
    }

    std::printf("router: %s, p=%d, v=%d, w=%d, clk=%.1f tau4, "
                "range=%s\n\n", toString(prm.kind), prm.p, prm.v,
                prm.w, clk_tau4, toString(prm.range));

    std::printf("atomic modules on the critical path:\n");
    auto path = criticalPath(prm);
    for (const auto &m : path) {
        std::printf("  %-18s t=%6.1f tau4   h=%4.1f tau4\n",
                    m.name().c_str(), m.delay.latency.inTau4(),
                    m.delay.overhead.inTau4());
    }
    std::printf("  unpipelined total: %.1f tau4 (Chien-style single "
                "number)\n\n",
                criticalPathTotal(path).inTau4());

    for (auto policy : {FitPolicy::Strict, FitPolicy::Relaxed}) {
        auto d = design(path, clk, policy);
        std::printf("pipeline (%s fit): %d stages\n",
                    policy == FitPolicy::Strict ? "strict EQ-1"
                                                : "relaxed",
                    d.depth());
        int idx = 1;
        for (const auto &stage : d.stages) {
            std::printf("  stage %d (%4.1f%% occupied):", idx++,
                        100.0 * stage.occupancy().value() /
                            clk.value());
            for (const auto &s : stage.slices) {
                std::printf(" %s", toString(s.kind));
                if (s.continues)
                    std::printf("...");
            }
            std::printf("\n");
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return example::guardedMain(run, argc, argv);
}
