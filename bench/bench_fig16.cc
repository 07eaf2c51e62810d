/**
 * @file
 * Figure 16 reproduction: the buffer-turnaround timeline.
 *
 * Two parts:
 *  1. The analytic timeline of one buffer slot's credit loop for each
 *     router model (the figure's narrative), from the pipeline
 *     position of switch allocation and the channel latencies.
 *  2. An empirical measurement, declared in experiments/fig16.exp: a
 *     saturated single-hop stream (k=2 mesh, neighbor traffic, both
 *     directions disjoint) in fixed-horizon mode, swept over buffer
 *     depth B for five router variants.  A stream with B buffers
 *     sustains min(1, B / T_loop) flits/cycle, so the measured rate
 *     reveals the effective buffer turnaround T_loop per router model.
 *     `pdr sweep --file experiments/fig16.exp` runs the same grid.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"
#include "exec/sweep.hh"

using namespace pdr;

namespace {

void
timeline(const char *model, int sa_offset, int credit_prop)
{
    // One slot's life, t = downstream arrival of the flit using it.
    int grant = sa_offset;              // Downstream SA frees the slot.
    int credit_back = grant + credit_prop;
    int reuse_grant = credit_back + sa_offset;  // Upstream refill...
    std::printf("  %-22s arrival t+0 | freed (SA) t+%d | credit back "
                "t+%d | next flit in slot ~t+%d\n",
                model, grant, credit_back, reuse_grant + 2);
}

} // namespace

int
main()
{
    bench::banner("Figure 16 - buffer turnaround timeline",
                  "Longer pipelines hold buffers idle longer between "
                  "uses, cutting effective\nbuffering and throughput "
                  "(paper: turnaround 4 cycles WH/specVC, 5 VC, 2\n"
                  "single-cycle, with 1-cycle credit propagation).");

    std::printf("\nanalytic slot timeline (1-cycle links):\n");
    timeline("single-cycle", 1, 1);
    timeline("wormhole / specVC", 2, 1);
    timeline("VC (non-spec)", 2, 1);
    std::printf("  (VC head flits allocate at t+3: their credits "
                "return one cycle later\n   than wormhole/specVC -> "
                "the paper's 5-cycle turnaround)\n");

    std::printf("\nempirical: saturated 1-hop stream, delivered "
                "flits/node/cycle vs buffers B\n");
    std::printf("(rate = min(1, B / T_loop): the knee reveals the "
                "effective turnaround)\n\n");

    // The (router variant x buffer depth) grid is declared in
    // experiments/fig16.exp: curves = router variants, one sweep axis
    // over router.buf_depth, fixed-horizon mode.
    auto exp = bench::loadExperiment("fig16.exp");
    auto results = exec::SweepRunner().run(exp.points());
    results.throwIfFailed();

    const auto &bufs = exp.axes.at(0).values;
    std::printf("%-24s", "B =");
    for (const auto &b : bufs)
        std::printf(" %5s", b.c_str());
    std::printf("\n");

    // Points are axis-major (buffer depth outer, curves inner).
    const std::size_t ncurves = exp.curves.size();
    for (std::size_t r = 0; r < ncurves; r++) {
        std::printf("%-24s", exp.curves[r].label.c_str());
        for (std::size_t b = 0; b < bufs.size(); b++) {
            const auto &p = results.points[b * ncurves + r];
            // acceptedFraction is of uniform capacity; scale back to
            // flits/node/cycle for the figure's axis.
            std::printf(" %5.2f",
                        p.res.acceptedFraction * p.cfg.net.capacity());
        }
        std::printf("\n");
    }
    std::printf("(%zu runs on %d threads in %.1f s)\n",
                results.points.size(), results.threads,
                results.wallMs / 1000.0);
    std::printf("\nreading: with B=4, wormhole/specVC sustain ~B/loop;"
                " the non-spec VC router\nneeds one more buffer for "
                "the same rate; 4-cycle credit propagation (paper\n"
                "Fig 18) stretches the loop by 3 cycles.\n");
    return 0;
}
