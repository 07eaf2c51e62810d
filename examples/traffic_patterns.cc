/**
 * @file
 * Traffic-pattern tour: run the speculative VC router against the
 * standard synthetic patterns of the interconnection-network
 * literature (an extension beyond the paper's uniform-only evaluation;
 * the paper argues flow control is relatively pattern-insensitive --
 * this example lets you check).
 *
 * Declarative: the whole grid is an api::Experiment -- every pattern
 * registered in traffic::PatternRegistry becomes one axis value, so a
 * pattern you register yourself shows up in the table automatically.
 *
 *   $ ./traffic_patterns [offered_fraction]
 *
 * A malformed argument prints `error: ...` naming it and exits 1.
 */

#include <cstdio>

#include "api/params.hh"
#include "common/logging.hh"
#include "example_main.hh"
#include "exec/sweep.hh"
#include "traffic/pattern.hh"

using namespace pdr;

namespace {

int
run(int argc, char **argv)
{
    example::checkArgCount(argc, 1,
                           "traffic_patterns [offered_fraction]");
    const double offered = example::paramArg(
        argc, argv, 1, "traffic.offered_fraction", 0.3);

    api::Experiment exp;
    exp.name = "traffic-patterns";
    exp.set("net.k", "8");
    exp.set("sim.warmup", "4000");
    exp.set("sim.sample_packets", "8000");
    exp.set("traffic.offered_fraction", csprintf("%.6f", offered));
    // One axis value per registered pattern, WH vs specVC curves.
    std::string patterns;
    for (const auto &name : traffic::PatternRegistry::instance().names())
        patterns += (patterns.empty() ? "" : " ") + name;
    exp.set("sweep.traffic.pattern", patterns);
    exp.curves = {
        {"WH",
         {{"router.model", "WH"},
          {"router.num_vcs", "1"},
          {"router.buf_depth", "8"}}},
        {"specVC",
         {{"router.model", "specVC"},
          {"router.num_vcs", "2"},
          {"router.buf_depth", "4"}}},
    };
    exp.applyEnv();

    std::printf("specVC (2 VCs x 4 bufs) vs wormhole (8 bufs), 8x8 "
                "mesh, offered %.0f%% of\nuniform capacity\n\n",
                100.0 * offered);
    std::printf("%-12s %20s %20s\n", "pattern", "WH latency (acc%)",
                "specVC latency (acc%)");

    auto results = exec::SweepRunner().run(exp.points());

    const auto &kinds = exp.axes.at(0).values;
    for (std::size_t p = 0; p < kinds.size(); p++) {
        std::printf("%-12s", kinds[p].c_str());
        for (std::size_t c = 0; c < exp.curves.size(); c++) {
            const auto &pt = results.points[p * exp.curves.size() + c];
            if (!pt.ok) {
                // E.g. bitcomp on a non-power-of-two node count.
                std::printf(" %13s       ", "n/a");
                continue;
            }
            std::printf(" %11.1f (%4.0f%%)%s", pt.res.avgLatency,
                        100.0 * pt.res.acceptedFraction,
                        pt.res.saturated() ? "*" : " ");
        }
        std::printf("\n");
    }
    std::printf("\n(* = saturated at this load; latency reflects "
                "delivered packets only)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return example::guardedMain(run, argc, argv);
}
