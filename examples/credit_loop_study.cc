/**
 * @file
 * Credit-loop study: how buffer depth and credit latency interact
 * (the mechanism behind Figures 16 and 18 of the paper).
 *
 * Sweeps buffers-per-VC x credit propagation latency for a speculative
 * VC router and prints the achieved saturation throughput, showing the
 * "buffers must cover the credit loop" rule of thumb.
 *
 *   $ ./credit_loop_study [vcs]
 *
 * A malformed argument prints `error: ...` naming it and exits 1.
 */

#include <cstdio>
#include <vector>

#include "api/simulation.hh"
#include "example_main.hh"

using namespace pdr;
using router::RouterModel;

namespace {

int
run(int argc, char **argv)
{
    example::checkArgCount(argc, 1, "credit_loop_study [vcs]");
    const int vcs =
        int(example::paramArg(argc, argv, 1, "router.num_vcs", 2));

    std::printf("speculative VC router, %d VCs, 8x8 mesh, uniform "
                "traffic\nsaturation throughput (fraction of capacity)"
                " vs buffers/VC and credit latency\n\n", vcs);

    const int bufs[] = {2, 4, 8};
    const sim::Cycle cps[] = {1, 2, 4, 8};

    std::printf("%-12s", "bufs\\credit");
    for (auto cp : cps)
        std::printf(" %7llu", static_cast<unsigned long long>(cp));
    std::printf("\n");

    // One cell per (buffers x credit-latency) pair; findSaturation
    // itself runs each round's candidate loads on a PDR_THREADS-wide
    // pool, lowest first, skipping any that would start after a lower
    // one failed, so the cells run back to back.
    std::vector<api::SimConfig> grid;
    for (int buf : bufs) {
        for (auto cp : cps) {
            api::SimConfig cfg;
            cfg.net.router.model = RouterModel::SpecVirtualChannel;
            cfg.net.router.numVcs = vcs;
            cfg.net.router.bufDepth = buf;
            cfg.net.creditLatency = cp;
            cfg.net.warmup = 3000;
            cfg.net.samplePackets = 4000;
            cfg.maxCycles = 100000;
            cfg.applyEnvDefaults();
            grid.push_back(cfg);
        }
    }

    std::vector<double> sats;
    sats.reserve(grid.size());
    for (const auto &cfg : grid)
        sats.push_back(api::findSaturation(cfg, 4.0, 0.02));

    const std::size_t ncols = sizeof cps / sizeof cps[0];
    for (std::size_t r = 0; r < sizeof bufs / sizeof bufs[0]; r++) {
        std::printf("%-12d", bufs[r]);
        for (std::size_t c = 0; c < ncols; c++)
            std::printf(" %7.2f", sats[r * ncols + c]);
        std::printf("\n");
    }

    std::printf("\nreading: each column shift to the right (longer "
                "credit path) needs deeper\nbuffers to hold the same "
                "throughput -- buffers must cover the credit loop\n"
                "(paper Section 5.2 / Figure 18: 1 -> 4 cycles cost "
                "specVC 2x4 ~18%% of its\nthroughput).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return example::guardedMain(run, argc, argv);
}
