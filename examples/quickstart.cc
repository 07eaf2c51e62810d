/**
 * @file
 * Quickstart: simulate the paper's headline comparison in ~30 lines.
 *
 * Builds an 8x8 mesh with each of the three router microarchitectures,
 * runs the measurement protocol at a moderate load, and prints average
 * latency and accepted throughput.
 *
 *   $ ./quickstart [offered_fraction]
 *
 * A malformed argument prints `error: ...` naming it and exits 1.
 */

#include <cstdio>

#include "api/simulation.hh"
#include "example_main.hh"

using namespace pdr;
using router::RouterModel;

namespace {

int
run(int argc, char **argv)
{
    example::checkArgCount(argc, 1, "quickstart [offered_fraction]");
    const double offered = example::paramArg(
        argc, argv, 1, "traffic.offered_fraction", 0.4);

    std::printf("8x8 mesh, uniform traffic, 5-flit packets, offered "
                "load %.0f%% of capacity\n\n", 100.0 * offered);
    std::printf("%-28s %12s %12s %10s\n", "router", "avg latency",
                "p99 latency", "accepted");

    struct Entry
    {
        const char *name;
        RouterModel model;
        int vcs;
        int buf;
    };
    const Entry entries[] = {
        {"wormhole (8 bufs)", RouterModel::Wormhole, 1, 8},
        {"VC (2 VCs x 4 bufs)", RouterModel::VirtualChannel, 2, 4},
        {"spec VC (2 VCs x 4 bufs)", RouterModel::SpecVirtualChannel,
         2, 4},
    };

    for (const auto &e : entries) {
        api::SimConfig cfg;
        cfg.net.router.model = e.model;
        cfg.net.router.numVcs = e.vcs;
        cfg.net.router.bufDepth = e.buf;
        cfg.net.warmup = 5000;
        cfg.net.samplePackets = 10000;
        cfg.net.setOfferedFraction(offered);
        cfg.applyEnvDefaults();

        auto res = api::runSimulation(cfg);
        std::printf("%-28s %9.1f cy %9.1f cy %9.2f%%%s\n", e.name,
                    res.avgLatency, res.p99Latency,
                    100.0 * res.acceptedFraction,
                    res.saturated() ? "  (saturated)" : "");
    }

    std::printf("\nThe speculative VC router matches the wormhole "
                "router's latency while\nsustaining VC flow control's "
                "higher throughput (paper, Section 5.1).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return example::guardedMain(run, argc, argv);
}
