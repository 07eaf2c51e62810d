/**
 * @file
 * Table 1 reproduction: parameterized delay equations evaluated at the
 * paper's example point (p=5, w=32, v=2, clk=20 tau4), printed next to
 * the published model and Synopsys columns, plus the logical-effort
 * fundamentals (EQ 3) and the gate-level circuit reconstructions.
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hh"
#include "delay/equations.hh"
#include "le/circuits.hh"

using namespace pdr;
using namespace pdr::delay;

namespace {

void
row(const char *name, Tau t, Tau h, double paper_model,
    double paper_synopsys)
{
    double model = (t + h).inTau4();
    std::printf("%-34s %9.1f %12.1f %12.1f %9s\n", name, model,
                paper_model, paper_synopsys,
                std::abs(model - paper_model) <= 0.1 ? "ok" : "DIFF");
}

} // namespace

int
main()
{
    bench::banner("Table 1 - Parameterized delay equations",
                  "Module delays (t_i + h_i, in tau4) at p=5, w=32, "
                  "v=2; paper's model and\nSynopsys columns for "
                  "reference.  1 tau4 = 5 tau (EQ 3).");

    const int p = 5, w = 32, v = 2;

    std::printf("%-34s %9s %12s %12s %9s\n", "module", "ours",
                "paper-model", "paper-synop", "match");

    std::printf("-- wormhole router --\n");
    row("switch arbiter (SB)", tSB(p), hSB(p), 9.6, 9.9);
    row("crossbar traversal (XB)", tXB(p, w), hXB(p, w), 8.4, 10.5);

    std::printf("-- virtual-channel router --\n");
    row("VC allocator (Rv)", tVA(RoutingRange::Rv, p, v),
        hVA(RoutingRange::Rv, p, v), 11.8, 11.0);
    row("VC allocator (Rp)", tVA(RoutingRange::Rp, p, v),
        hVA(RoutingRange::Rp, p, v), 13.1, 13.3);
    row("VC allocator (Rpv)", tVA(RoutingRange::Rpv, p, v),
        hVA(RoutingRange::Rpv, p, v), 16.9, 15.3);
    row("switch allocator (SL)", tSL(p, v), hSL(p, v), 10.9, 12.0);

    std::printf("-- speculative virtual-channel router --\n");
    row("combined VA+SS+CB (Rv)", tSpecCombined(RoutingRange::Rv, p, v),
        Tau(0.0), 14.6, 16.2);
    row("combined VA+SS+CB (Rp)", tSpecCombined(RoutingRange::Rp, p, v),
        Tau(0.0), 14.6, 16.2);
    row("combined VA+SS+CB (Rpv)",
        tSpecCombined(RoutingRange::Rpv, p, v), Tau(0.0), 18.3, 16.8);

    std::printf("\n-- logical-effort fundamentals --\n");
    le::Path fo4;
    fo4.add(le::inverter(), 4.0);
    std::printf("inverter driving 4 inverters: %.1f tau "
                "(paper: tau4 = 5 tau)\n", fo4.delay().value());

    std::printf("\n-- gate-level circuit reconstructions (tau4, "
                "validation bound ~2 tau4) --\n");
    std::printf("%-34s %9s %12s\n", "circuit", "circuit", "closed-form");
    std::printf("%-34s %9.1f %12.1f\n", "switch arbiter path (p=5)",
                le::switchArbiterPath(p).delay().inTau4(),
                tSB(p).inTau4());
    std::printf("%-34s %9.1f %12.1f\n", "crossbar path (p=5, w=32)",
                le::crossbarPath(p, w).delay().inTau4(),
                tXB(p, w).inTau4());
    std::printf("%-34s %9.1f %12.1f\n", "arbiter overhead path",
                le::arbiterOverheadPath().delay().inTau4(),
                hSB(p).inTau4());
    return 0;
}
