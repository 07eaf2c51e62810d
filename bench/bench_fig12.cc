/**
 * @file
 * Figure 12 reproduction: delay of the combined VA + speculative-SA
 * pipeline stage of a speculative VC router (in tau4), swept over v and
 * p for the three routing-function ranges Rv / Rp / Rpv.
 */

#include <cstdio>

#include "bench_util.hh"
#include "delay/equations.hh"

using namespace pdr;
using namespace pdr::delay;

int
main()
{
    bench::banner("Figure 12 - Combined VC & switch allocation delay",
                  "Delay (tau4) of the speculative router's combined "
                  "allocation stage vs the\nrouting-function range.  "
                  "20 tau4 = one typical clock cycle.");

    std::printf("%-14s %8s %8s %8s\n", "config", "R:v", "R:p", "R:pv");
    for (int p : {5, 7}) {
        for (int v : {2, 4, 8, 16, 32}) {
            std::printf("%2dvcs,%dpcs    %8.1f %8.1f %8.1f\n", v, p,
                        tSpecCombined(RoutingRange::Rv, p, v).inTau4(),
                        tSpecCombined(RoutingRange::Rp, p, v).inTau4(),
                        tSpecCombined(RoutingRange::Rpv, p, v).inTau4());
        }
    }
    std::printf("\npaper anchor (2vcs,5pcs): 14.6 / 14.6 / 18.3 tau4\n");
    std::printf("values <= 20 tau4 fit the allocation stage in a "
                "single cycle, giving the\nspeculative router the same "
                "3-stage per-node latency as a wormhole router\n");
    return 0;
}
