/**
 * @file
 * Lockstep equivalence: bitmask allocation engine vs scalar oracle.
 *
 * The bitmask rework (arb/bitrow.hh layout) claims bit-identical grants
 * AND bit-identical priority-state evolution against the retained dense
 * implementations (scalar_oracle.hh, test-only).  These tests drive each
 * bitmask/scalar pair in lockstep over seeded random request streams --
 * every round the grant vectors must match exactly (same grants, same
 * order), and the serialized priority state (rotating pointers + every
 * matrix arbiter's upper triangle) is compared periodically and at the
 * end, so a divergence in arbiter updates is caught even when it has
 * not yet produced a differing grant.
 *
 * An end-to-end layer runs whole audited simulations against pinned
 * results, which both allocation engines reproduced when wired into the
 * router.  The auditor's AUD-BID check compares the router's sparse bid
 * staging (bidRouteWait_/bidActive_/outFree_) against a dense recompute
 * every cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "api/simulation.hh"
#include "arb/matrix_arbiter.hh"
#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"
#include "common/rng.hh"
#include "scalar_oracle.hh"

using namespace pdr;
using namespace pdr::arb;
using router::RouterModel;

namespace {

constexpr int kRounds = 10000;
constexpr int kStateEvery = 500;  //!< Full-state compare period.

/** Round-varying request density: sparse, medium, saturated. */
double
density(int round)
{
    static const double kDensities[3] = {0.1, 0.5, 0.9};
    return kDensities[round % 3];
}

std::tuple<int, int, int, bool>
key(const SaGrant &g)
{
    return {g.inPort, g.inVc, g.outPort, g.spec};
}

std::tuple<int, int, int, int>
key(const VaGrant &g)
{
    return {g.inPort, g.inVc, g.outPort, g.outVc};
}

template <typename Grant>
void
expectSameGrants(const std::vector<Grant> &bit,
                 const std::vector<Grant> &sca, int round)
{
    ASSERT_EQ(bit.size(), sca.size()) << "round " << round;
    for (std::size_t i = 0; i < bit.size(); i++)
        ASSERT_EQ(key(bit[i]), key(sca[i]))
            << "round " << round << " grant " << i;
}

template <typename Bit, typename Scalar>
void
expectSameState(const Bit &bit, const Scalar &sca, int round)
{
    std::vector<std::uint8_t> sb, ss;
    bit.dumpState(sb);
    sca.dumpState(ss);
    ASSERT_EQ(sb, ss) << "priority state diverged by round " << round;
}

} // namespace

// ---------------------------------------------------------------------
// MatrixArbiter vs ScalarMatrixArbiter, including a multi-word size.
// ---------------------------------------------------------------------

class MatrixArbiterEquiv : public testing::TestWithParam<int>
{
};

TEST_P(MatrixArbiterEquiv, LockstepGrantsAndState)
{
    const int n = GetParam();
    MatrixArbiter bit(n);
    ScalarMatrixArbiter sca(n);
    Rng rng(0xA110C8ED ^ std::uint64_t(n));
    ReqRow req(n);
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        for (int i = 0; i < n; i++)
            req[i] = rng.bernoulli(d) ? 1 : 0;
        const int wb = bit.arbitrate(req);
        const int ws = sca.arbitrate(req);
        ASSERT_EQ(wb, ws) << "round " << round;
        if (wb != NoGrant) {
            bit.update(wb);
            sca.update(ws);
        }
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

// 130 exercises the three-word arbitrateMask path (the stage-2 VC
// arbiter is (p*v):1 and may exceed one word).
INSTANTIATE_TEST_SUITE_P(Sizes, MatrixArbiterEquiv,
                         testing::Values(1, 2, 5, 8, 63, 64, 130),
                         testing::PrintToStringParamName());

// ---------------------------------------------------------------------
// Switch allocators, parameterized over (p, v).
// ---------------------------------------------------------------------

class AllocEquiv
    : public testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    int p() const { return std::get<0>(GetParam()); }
    int v() const { return std::get<1>(GetParam()); }
};

TEST_P(AllocEquiv, WormholeArbiter)
{
    // Wormhole routers are v == 1; skip the multi-VC instantiations.
    if (v() != 1)
        return;
    WormholeSwitchArbiter bit(p());
    ScalarWormholeSwitchArbiter sca(p());
    Rng rng(0x11 + p());
    std::vector<SaRequest> reqs;
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        // At most one request per input port (deterministic routing).
        for (int in = 0; in < p(); in++) {
            if (rng.bernoulli(d))
                reqs.push_back({in, 0, int(rng.range(p())), false});
        }
        expectSameGrants(bit.allocate(reqs), sca.allocate(reqs), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

TEST_P(AllocEquiv, SeparableSwitchAllocator)
{
    SeparableSwitchAllocator bit(p(), v());
    ScalarSeparableSwitchAllocator sca(p(), v());
    Rng rng(0x22 + p() * 64 + v());
    std::vector<SaRequest> reqs;
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        // At most one bid per input VC.
        for (int in = 0; in < p(); in++) {
            for (int vc = 0; vc < v(); vc++) {
                if (rng.bernoulli(d))
                    reqs.push_back({in, vc, int(rng.range(p())), false});
            }
        }
        expectSameGrants(bit.allocate(reqs), sca.allocate(reqs), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

TEST_P(AllocEquiv, SpeculativeSwitchAllocator)
{
    SpeculativeSwitchAllocator bit(p(), v());
    ScalarSpeculativeSwitchAllocator sca(p(), v());
    Rng rng(0x33 + p() * 64 + v());
    std::vector<SaRequest> reqs;
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        for (int in = 0; in < p(); in++) {
            for (int vc = 0; vc < v(); vc++) {
                if (rng.bernoulli(d))
                    reqs.push_back({in, vc, int(rng.range(p())),
                                    rng.bernoulli(0.5)});
            }
        }
        expectSameGrants(bit.allocate(reqs), sca.allocate(reqs), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

TEST_P(AllocEquiv, VcAllocator)
{
    VcAllocator bit(p(), v());
    ScalarVcAllocator sca(p(), v());
    Rng rng(0x44 + p() * 64 + v());
    std::vector<VaRequest> reqs;
    std::vector<std::uint64_t> free_vcs(p());
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        for (int in = 0; in < p(); in++) {
            for (int vc = 0; vc < v(); vc++) {
                if (!rng.bernoulli(d))
                    continue;
                // Nonzero acceptable-VC mask (bits >= v ignored by the
                // allocators; keep them clear as routing would).
                std::uint32_t vc_mask =
                    std::uint32_t(rng.range((1u << v()) - 1) + 1);
                reqs.push_back({in, vc, int(rng.range(p())), vc_mask});
            }
        }
        // Free-VC words, occasionally fully free / fully busy.
        for (int out = 0; out < p(); out++) {
            std::uint64_t w = 0;
            if (round % 17 == 0) {
                w = lowMask(v());
            } else if (round % 19 != 0) {
                for (int ov = 0; ov < v(); ov++) {
                    if (rng.bernoulli(0.6))
                        w |= std::uint64_t(1) << ov;
                }
            }
            free_vcs[out] = w;
        }
        expectSameGrants(bit.allocate(reqs, free_vcs.data()),
                         sca.allocate(reqs, free_vcs.data()), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, AllocEquiv,
    testing::Values(std::make_tuple(2, 1), std::make_tuple(5, 1),
                    std::make_tuple(8, 1), std::make_tuple(2, 2),
                    std::make_tuple(3, 4), std::make_tuple(5, 2),
                    std::make_tuple(8, 8)),
    [](const testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "p" + std::to_string(std::get<0>(info.param)) + "v" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// End-to-end: whole audited simulations against pinned results.
// ---------------------------------------------------------------------

namespace {

/** Router counters and measured results of one fixed-horizon run. */
struct Pinned
{
    std::uint64_t flitsIn;
    std::uint64_t flitsOut;
    std::uint64_t headGrants;
    std::uint64_t vaGrants;
    std::uint64_t specSaAttempts;
    std::uint64_t specSaWins;
    std::uint64_t specSaUseful;
    std::uint64_t creditStallCycles;
    std::uint64_t bufOccupancy;
    double avgLatency;
    double acceptedFraction;
};

/**
 * A 4x4 mesh at 0.3 of capacity for 4000 cycles with the per-cycle
 * auditor on (AUD-WAKE, AUD-CREDIT, AUD-BID).  The 1000-cycle warm-up
 * ends inside the horizon so latency and throughput are measured.
 * The expected values were produced, bit for bit, by both the bitmask
 * engine and the dense scalar allocators wired into the router.
 */
void
expectPinned(RouterModel model, int vcs, const Pinned &want)
{
    api::SimConfig cfg;
    cfg.net.k = 4;
    cfg.net.router.model = model;
    cfg.net.router.numVcs = vcs;
    cfg.net.router.bufDepth = 4;
    cfg.net.audit = true;
    cfg.net.warmup = 1000;
    cfg.net.setOfferedFraction(0.3);
    cfg.mode = "fixed";
    cfg.horizon = 4000;
    const auto got = api::runSimulation(cfg);
    EXPECT_EQ(got.cycles, 4000u);
    EXPECT_EQ(got.routers.flitsIn, want.flitsIn);
    EXPECT_EQ(got.routers.flitsOut, want.flitsOut);
    EXPECT_EQ(got.routers.headGrants, want.headGrants);
    EXPECT_EQ(got.routers.vaGrants, want.vaGrants);
    EXPECT_EQ(got.routers.specSaAttempts, want.specSaAttempts);
    EXPECT_EQ(got.routers.specSaWins, want.specSaWins);
    EXPECT_EQ(got.routers.specSaUseful, want.specSaUseful);
    EXPECT_EQ(got.routers.creditStallCycles, want.creditStallCycles);
    EXPECT_EQ(got.routers.bufOccupancy, want.bufOccupancy);
    EXPECT_DOUBLE_EQ(got.avgLatency, want.avgLatency);
    EXPECT_DOUBLE_EQ(got.acceptedFraction, want.acceptedFraction);
}

} // namespace

TEST(AllocEquivEndToEnd, Wormhole)
{
    expectPinned(RouterModel::Wormhole, 1,
                 {71045, 70989, 14207, 0, 0, 0, 0, 21277, 266243,
                  38.526547176192089, 0.31008333333333332});
}

TEST(AllocEquivEndToEnd, VirtualChannel)
{
    expectPinned(RouterModel::VirtualChannel, 4,
                 {71186, 71123, 14237, 14241, 0, 0, 0, 5319, 241558,
                  28.262588712402838, 0.31066666666666665});
}

TEST(AllocEquivEndToEnd, SpecVirtualChannel)
{
    expectPinned(RouterModel::SpecVirtualChannel, 4,
                 {71222, 71176, 14249, 14249, 14430, 11511, 11468, 1463,
                  182547, 24.943581081081081, 0.31079166666666669});
}
