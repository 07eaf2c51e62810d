/**
 * @file
 * Figure-11 pipeline-depth reproduction tests.
 *
 * Section 4 of the paper, at a 20-tau4 clock:
 *  (a) non-speculative VC routers (Rpv allocator): one more stage than
 *      the 3-stage wormhole pipeline for practical VC counts;
 *  (b) speculative VC routers (Rv): 3 stages up to 16 VCs per physical
 *      channel (for 5 and 7 physical channels), 4 at 32.
 *
 * Known paper-internal tension (see the file comment of
 * src/pipeline/designer.hh and tSpecCombinedOverlap in
 * src/delay/equations.hh): under the strict EQ-1 fit a few marginal configurations (Rpv VA at >= 8 VCs;
 * spec combined stage at 16 VCs with the CB mux charged) exceed 20 tau4
 * even though the prose rounds them into one cycle.  The tests assert
 * the model's exact behaviour and the prose-matching Relaxed + CB
 * -overlap variant where applicable.
 */

#include <gtest/gtest.h>

#include "pipeline/designer.hh"

using namespace pdr;
using namespace pdr::delay;
using namespace pdr::pipeline;

namespace {

int
vcDepth(int p, int v, FitPolicy policy = FitPolicy::Strict)
{
    return designRouter({RouterKind::VirtualChannel, p, 32, v,
                         RoutingRange::Rpv},
                        typicalClock, policy).depth();
}

int
specDepth(int p, int v, bool overlap_cb, FitPolicy policy)
{
    RouterParams prm{RouterKind::SpecVirtualChannel, p, 32, v,
                     RoutingRange::Rv};
    prm.overlapCombination = overlap_cb;
    return designRouter(prm, typicalClock, policy).depth();
}

} // namespace

TEST(Figure11, WormholeIsThreeStages)
{
    for (int p : {5, 7}) {
        auto d = designRouter({RouterKind::Wormhole, p, 32, 1,
                               RoutingRange::Rv});
        EXPECT_EQ(d.depth(), 3) << "p=" << p;
    }
}

TEST(Figure11a, VcNeedsOneMoreStageThanWormholeAtLowVcCounts)
{
    for (int p : {5, 7})
        EXPECT_EQ(vcDepth(p, 2), 4) << "p=" << p;
}

TEST(Figure11a, VcFourVcsFitsFourStagesRelaxed)
{
    // At 4 VCs the Rpv VA computes to 20.2 tau4: marginally over a
    // strict 20-tau4 fit, inside the relaxed one.
    EXPECT_EQ(vcDepth(5, 4, FitPolicy::Relaxed), 4);
    EXPECT_EQ(vcDepth(5, 4, FitPolicy::Strict), 5);
}

TEST(Figure11a, VcDepthGrowsWithVcs)
{
    // The Rpv VA eventually needs two cycles, then the allocator too.
    EXPECT_LE(vcDepth(5, 2), vcDepth(5, 8));
    EXPECT_LE(vcDepth(5, 8), vcDepth(5, 32));
    EXPECT_EQ(vcDepth(5, 32), 6);   // VA 28.3 tau4 (2 cy) + SL 20.1 (2).
}

TEST(Figure11b, SpecThreeStagesUpTo16Vcs)
{
    // The paper's claim, reproduced with the CB mux overlapped and the
    // relaxed fit: spec VC routers match the wormhole's 3 stages up to
    // 16 VCs for both 5 and 7 physical channels.
    for (int p : {5, 7}) {
        for (int v : {2, 4, 8, 16}) {
            EXPECT_EQ(specDepth(p, v, true, FitPolicy::Relaxed), 3)
                << "p=" << p << " v=" << v;
        }
    }
}

TEST(Figure11b, SpecFourStagesAt32Vcs)
{
    for (int p : {5, 7})
        EXPECT_EQ(specDepth(p, 32, true, FitPolicy::Relaxed), 4)
            << "p=" << p;
}

TEST(Figure11b, StrictFitWithCbChargedIsDeeperAtHighVcCounts)
{
    // Documents the paper-internal tension: charging CB + overhead
    // pushes the 16-VC configuration past 20 tau4.
    EXPECT_EQ(specDepth(5, 2, false, FitPolicy::Strict), 3);
    EXPECT_EQ(specDepth(5, 4, false, FitPolicy::Strict), 3);
    EXPECT_EQ(specDepth(5, 16, false, FitPolicy::Strict), 4);
}

TEST(Figure11b, SpecNeverDeeperThanNonSpec)
{
    for (int p : {5, 7}) {
        for (int v : {2, 4, 8, 16, 32}) {
            RouterParams sp{RouterKind::SpecVirtualChannel, p, 32, v,
                            RoutingRange::Rv};
            RouterParams vc{RouterKind::VirtualChannel, p, 32, v,
                            RoutingRange::Rv};
            EXPECT_LE(designRouter(sp).depth(),
                      designRouter(vc).depth())
                << "p=" << p << " v=" << v;
        }
    }
}

TEST(Figure11, OccupancyFractionsSumToModuleDelays)
{
    // The shaded-bar data of Figure 11: per-stage occupancy slices must
    // re-assemble into each module's latency.
    RouterParams prm{RouterKind::VirtualChannel, 5, 32, 8,
                     RoutingRange::Rpv};
    auto path = criticalPath(prm);
    auto d = designRouter(prm);
    for (const auto &m : path) {
        double total = 0.0;
        for (const auto &s : d.stages)
            for (const auto &sl : s.slices)
                if (sl.kind == m.kind)
                    total += sl.occupied.value();
        // Strict fit packs latency (t_i) into stages.
        EXPECT_NEAR(total, m.delay.latency.value(), 1e-9)
            << m.name();
    }
}
