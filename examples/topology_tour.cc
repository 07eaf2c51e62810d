/**
 * @file
 * Topology and routing tour: the same speculative VC router on a mesh
 * with DOR, a mesh with west-first adaptive routing, and a torus with
 * dateline VCs -- the directions the paper's Section 6 lists as future
 * work, side by side.
 *
 * Declarative: each column is an experiment curve overriding
 * net.topology / net.routing by registry name; the pattern axis spans
 * the rows.
 *
 *   $ ./topology_tour [offered_fraction] [k]
 *
 * A malformed argument prints `error: ...` naming it and exits 1.
 */

#include <cstdio>

#include "api/params.hh"
#include "common/logging.hh"
#include "example_main.hh"
#include "exec/sweep.hh"

using namespace pdr;

namespace {

int
run(int argc, char **argv)
{
    example::checkArgCount(argc, 2, "topology_tour [offered_fraction] [k]");
    const double offered = example::paramArg(
        argc, argv, 1, "traffic.offered_fraction", 0.3);
    const int k = int(example::paramArg(argc, argv, 2, "net.k", 8));

    std::string frac = csprintf("%.6f", offered);

    api::Experiment exp;
    exp.name = "topology-tour";
    exp.set("net.k", std::to_string(k));
    exp.set("router.model", "specVC");
    exp.set("router.num_vcs", "2");
    exp.set("router.buf_depth", "4");
    exp.set("sim.warmup", "4000");
    exp.set("sim.sample_packets", "8000");
    exp.set("sweep.traffic.pattern",
            "uniform transpose tornado hotspot");
    // The offered fraction is re-applied per curve AFTER the topology
    // override, so each column is normalized to its own capacity.
    exp.curves = {
        {"mesh + DOR",
         {{"net.topology", "mesh"},
          {"traffic.offered_fraction", frac}}},
        {"mesh + west-first",
         {{"net.topology", "mesh"},
          {"net.routing", "westfirst"},
          {"traffic.offered_fraction", frac}}},
        {"torus + dateline",
         {{"net.topology", "torus"},
          {"traffic.offered_fraction", frac}}},
    };
    exp.applyEnv();

    std::printf("specVC (2 VCs x 4 bufs), %dx%d network, offered "
                "%.0f%% of each topology's\nuniform capacity\n\n", k,
                k, 100.0 * offered);
    std::printf("%-14s %22s %22s %22s\n", "pattern", "mesh + DOR",
                "mesh + west-first", "torus + dateline");

    auto results = exec::SweepRunner().run(exp.points());
    results.throwIfFailed();

    const auto &kinds = exp.axes.at(0).values;
    for (std::size_t p = 0; p < kinds.size(); p++) {
        std::printf("%-14s", kinds[p].c_str());
        for (std::size_t c = 0; c < exp.curves.size(); c++) {
            const auto &res =
                results.points[p * exp.curves.size() + c].res;
            std::printf("      %8.1f cy (%3.0f%%)", res.avgLatency,
                        100.0 * res.acceptedFraction);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("\nnotes: the torus column is normalized to the torus"
                " capacity (2x the mesh);\nits wraparound shortens "
                "paths (tornado in particular becomes cheap), while\n"
                "the dateline restriction halves the VCs available "
                "per class.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return example::guardedMain(run, argc, argv);
}
