/**
 * @file
 * Section-2 reproduction: Chien's single-cycle, per-VC-crossbar-port
 * router model vs the paper's pipelined shared-port model.
 *
 * The scenario -- router shape and the VC-count axis -- is declared in
 * experiments/chien.exp; this bench evaluates both analytical delay
 * models at each declared point.  Prints, as a function of the VC
 * count: Chien's router latency (which is also his cycle time), the
 * Peh-Dally pipeline at a fixed 20-tau4 clock, and the implied per-hop
 * latency and channel-bandwidth ratios -- the quantitative version of
 * the paper's related-work critique.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/params.hh"
#include "bench_util.hh"
#include "delay/chien.hh"
#include "pipeline/designer.hh"

using namespace pdr;
using namespace pdr::delay;

int
main()
{
    bench::banner("Section 2 baseline - Chien's model vs the "
                  "pipelined model",
                  "Chien: one cycle per hop, cycle = full router "
                  "latency, crossbar port per VC.\nPeh-Dally: fixed "
                  "20-tau4 cycle, pipelined, crossbar port per "
                  "physical channel.");

    // The router shape and VC axis come from the experiment file; the
    // phit width is a delay-model constant (32-bit phits, Section 2).
    auto exp = api::Experiment::load(
        bench::experimentFile("chien.exp"));
    const int p = std::stoi(
        api::params::get(exp.base, "router.num_ports"));
    std::vector<int> vcs;
    for (const auto &axis : exp.axes) {
        if (axis.key == "router.num_vcs")
            for (const auto &v : axis.values)
                vcs.push_back(std::stoi(v));
    }
    if (vcs.empty())
        throw std::runtime_error(
            "chien.exp: expected a sweep.router.num_vcs axis");
    const int w = 32;

    std::printf("%-6s %14s %20s %16s %14s\n", "v", "Chien cyc=lat",
                "PD stages@20tau4", "per-hop ratio", "bandwidth x");

    for (int v : vcs) {
        double chien_lat = chien::routerLatency(p, v, w).inTau4();

        pipeline::PipelineDesign d;
        if (v == 1) {
            d = pipeline::designRouter(
                {RouterKind::Wormhole, p, w, 1, RoutingRange::Rv});
        } else {
            RouterParams prm{RouterKind::SpecVirtualChannel, p, w, v,
                             RoutingRange::Rv};
            prm.overlapCombination = true;
            d = pipeline::designRouter(prm, typicalClock,
                                       pipeline::FitPolicy::Relaxed);
        }
        double pd_lat = 20.0 * d.depth();

        std::printf("%-6d %11.1f t4 %13d stages %15.2f %13.2fx\n", v,
                    chien_lat, d.depth(), chien_lat / pd_lat,
                    chien_lat / 20.0);
    }
    std::printf("\nper-hop ratio < 1 would favor Chien's unpipelined "
                "router; bandwidth x is how\nmany times faster the "
                "pipelined router clocks its channels (flits/s per "
                "wire).\nChien's model charges every VC a crossbar "
                "port, so its latency explodes with\nv while the "
                "shared-port pipelined router stays at 3 stages "
                "(Section 2).\n");
    return 0;
}
