/**
 * @file
 * Figure 11 reproduction: pipeline designs prescribed by the model at a
 * 20-tau4 clock, as ASCII bars with per-stage module occupancy.
 *
 * (a) non-speculative VC routers, Rpv allocator, p in {5,7},
 *     v in {2..32}, with the 3-stage wormhole pipeline for reference;
 * (b) speculative VC routers, Rv allocator.
 *
 * Both the strict EQ-1 fit and the prose-matching relaxed fit (CB mux
 * overlapped for the speculative router) are printed; the file comment
 * of src/pipeline/designer.hh (and tSpecCombinedOverlap in
 * src/delay/equations.hh) discusses the marginal configurations where
 * they differ.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "common/logging.hh"
#include "pipeline/designer.hh"

using namespace pdr;
using namespace pdr::delay;
using namespace pdr::pipeline;

namespace {

std::string
formatDesign(const std::string &label, const PipelineDesign &d)
{
    std::string out = csprintf("%-14s %d stages |", label.c_str(),
                               d.depth());
    for (const auto &stage : d.stages) {
        for (const auto &slice : stage.slices) {
            out += csprintf(" %s(%.0f%%)", toString(slice.kind),
                            100.0 * slice.occupied.value() /
                                d.clock.value());
            if (slice.continues)
                out += "...";
        }
        out += " |";
    }
    return out;
}

void
sweep(RouterKind kind, RoutingRange range, bool overlap_cb,
      FitPolicy policy)
{
    // The (p, v) design grid, in grid order.
    for (int p : {5, 7}) {
        for (int v : {2, 4, 8, 16, 32}) {
            RouterParams prm{kind, p, 32, v, range};
            prm.overlapCombination = overlap_cb;
            auto d = designRouter(prm, typicalClock, policy);
            auto row = formatDesign(csprintf("%2dvcs,%dpcs", v, p), d);
            std::printf("%s\n", row.c_str());
        }
    }
}

} // namespace

int
main()
{
    bench::banner("Figure 11 - Pipelines prescribed by the model",
                  "Per-node latency (pipeline stages) at clk = 20 tau4."
                  "  Paper: wormhole = 3\nstages; non-spec VC ~4 stages"
                  " for practical VC counts; spec VC = 3 stages\nup to "
                  "16 VCs per physical channel.");

    std::printf("\nreference wormhole router:\n");
    std::printf("%s\n",
                formatDesign("wormhole",
                             designRouter({RouterKind::Wormhole, 5, 32,
                                           1, RoutingRange::Rv}))
                    .c_str());

    std::printf("\n(a) non-speculative VC router, Rpv "
                "(strict EQ-1 fit):\n");
    sweep(RouterKind::VirtualChannel, RoutingRange::Rpv, false,
          FitPolicy::Strict);

    std::printf("\n(a') same, relaxed fit (t_i only):\n");
    sweep(RouterKind::VirtualChannel, RoutingRange::Rpv, false,
          FitPolicy::Relaxed);

    std::printf("\n(b) speculative VC router, Rv, CB overlapped "
                "(paper-prose fit, relaxed):\n");
    sweep(RouterKind::SpecVirtualChannel, RoutingRange::Rv, true,
          FitPolicy::Relaxed);

    std::printf("\n(b') same, CB charged + strict EQ-1 fit:\n");
    sweep(RouterKind::SpecVirtualChannel, RoutingRange::Rv, false,
          FitPolicy::Strict);
    return 0;
}
