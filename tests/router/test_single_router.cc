/**
 * @file
 * Cross-model single-router properties: flit conservation, ordering,
 * ejection-port behaviour, parameterized over all router models.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "harness.hh"

using namespace pdr;
using namespace pdr::test;
using router::RouterConfig;
using router::RouterModel;
using sim::FlitType;

namespace {

struct ModelCase
{
    RouterModel model;
    int vcs;
    bool singleCycle;
};

std::string
name(const testing::TestParamInfo<ModelCase> &info)
{
    std::string n = router::toString(info.param.model);
    n += "_v" + std::to_string(info.param.vcs);
    n += info.param.singleCycle ? "_1cyc" : "_pipe";
    return n;
}

class AnyRouterTest : public testing::TestWithParam<ModelCase>
{
  protected:
    RouterConfig
    config(int buf = 8) const
    {
        RouterConfig cfg;
        cfg.model = GetParam().model;
        cfg.numVcs = GetParam().vcs;
        cfg.singleCycle = GetParam().singleCycle;
        cfg.bufDepth = buf;
        return cfg;
    }
};

} // namespace

TEST_P(AnyRouterTest, ConservesAndOrdersFlits)
{
    SingleRouter h(config());
    h.autoCredit(true);
    Rng rng(11);
    int vcs = GetParam().vcs;
    // Drive random packets on every input port / VC (one packet per
    // input VC to keep upstream semantics simple), with random lengths.
    sim::PacketId id = 1;
    int total_flits = 0;
    for (int port = 0; port < 5; port++) {
        for (int vc = 0; vc < vcs; vc++) {
            int len = 1 + int(rng.range(5));
            int out = int(rng.range(5));
            for (int i = 0; i < len; i++) {
                FlitType t = len == 1 ? FlitType::HeadTail
                             : i == 0 ? FlitType::Head
                             : i == len - 1 ? FlitType::Tail
                                            : FlitType::Body;
                h.inject(port, SingleRouter::makeFlit(
                                   id, t, vc, out, std::uint8_t(i)));
            }
            id++;
            total_flits += len;
        }
    }
    std::map<sim::PacketId, int> next_seq;
    int received = 0;
    for (int cycle = 0; cycle < 300; cycle++) {
        for (auto &[port, f] : h.step()) {
            EXPECT_EQ(int(f.seq), next_seq[f.packet]) << "packet "
                                                      << f.packet;
            next_seq[f.packet]++;
            received++;
        }
    }
    EXPECT_EQ(received, total_flits);
    EXPECT_TRUE(h.router().quiescent());
}

TEST_P(AnyRouterTest, SinkPortIgnoresCredits)
{
    // Ejection (sink) ports have infinite buffering: a long packet
    // flows out without any credits ever returning.
    SingleRouter h(config(2), /*sink_port=*/4);
    int received = 0;
    for (int i = 0; i < 6; i++) {
        FlitType t = i == 0 ? FlitType::Head
                     : i == 5 ? FlitType::Tail : FlitType::Body;
        // Respect our own input FIFO depth of 2: spread injection.
        h.inject(0, SingleRouter::makeFlit(1, t, 0, 4, std::uint8_t(i)));
        for (int s = 0; s < 3; s++)
            received += int(h.step().size());
    }
    for (int cycle = 0; cycle < 40; cycle++)
        received += int(h.step().size());
    // All 6 flits ejected despite bufDepth 2 and no credits returned.
    EXPECT_EQ(received, 6);
}

TEST_P(AnyRouterTest, IdleRouterStaysQuiescent)
{
    SingleRouter h(config());
    for (int cycle = 0; cycle < 20; cycle++)
        EXPECT_TRUE(h.step().empty());
    EXPECT_TRUE(h.router().quiescent());
    EXPECT_EQ(h.router().statsAt(h.now()).flitsIn, 0u);
}

TEST_P(AnyRouterTest, AllOutputsReachable)
{
    SingleRouter h(config());
    // One single-flit packet per output from input 0's VC 0, spaced
    // far apart.
    for (int out = 1; out < 5; out++) {
        h.inject(0, SingleRouter::makeFlit(sim::PacketId(out),
                                           FlitType::HeadTail, 0, out,
                                           0));
        bool seen = false;
        for (int cycle = 0; cycle < 20 && !seen; cycle++) {
            for (auto &[port, f] : h.step()) {
                EXPECT_EQ(port, out);
                seen = true;
            }
        }
        EXPECT_TRUE(seen) << "output " << out;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Models, AnyRouterTest,
    testing::Values(ModelCase{RouterModel::Wormhole, 1, false},
                    ModelCase{RouterModel::Wormhole, 1, true},
                    ModelCase{RouterModel::VirtualChannel, 1, false},
                    ModelCase{RouterModel::VirtualChannel, 2, false},
                    ModelCase{RouterModel::VirtualChannel, 4, false},
                    ModelCase{RouterModel::VirtualChannel, 2, true},
                    ModelCase{RouterModel::SpecVirtualChannel, 2, false},
                    ModelCase{RouterModel::SpecVirtualChannel, 4, false},
                    ModelCase{RouterModel::SpecVirtualChannel, 2, true}),
    name);

TEST(RouterDeathTest, InputBufferOverflowPanics)
{
    // The input buffer is a growable sim::Ring; what refuses a flit
    // beyond bufDepth is the router's receive phase.  Credits keep a
    // real upstream from ever sending one, so the jig ignores them: a
    // packet longer than the buffer plus the downstream credits, with
    // no credit ever returned.
    RouterConfig cfg;
    cfg.model = RouterModel::VirtualChannel;
    cfg.numVcs = 1;
    cfg.bufDepth = 2;
    EXPECT_DEATH(
        {
            SingleRouter h(cfg);
            const int len = 10;
            for (int i = 0; i < len; i++) {
                const FlitType type = i == 0 ? FlitType::Head
                                      : i == len - 1 ? FlitType::Tail
                                                     : FlitType::Body;
                h.inject(1, SingleRouter::makeFlit(7, type, 0, 2,
                                                   std::uint8_t(i)));
            }
            for (int c = 0; c < 4 * len; c++)
                h.step();
        },
        "bufDepth");
}
