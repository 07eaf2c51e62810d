/**
 * @file
 * Route once per hop: a head is routed once at each router, and the
 * route record (output port, VC mask, next class) it leaves behind
 * serves every VA attempt, every nextWake and every departing flit of
 * its packet.  Only an adaptive routing re-iterates through routing on
 * each attempt (the paper's footnote 5).
 *
 * The jig drives eight input VCs' worth of packets at one output port
 * with two VCs, so most heads retry VA for many cycles while the
 * output VCs are held, and counts the routing function's calls.
 */

#include <gtest/gtest.h>

#include "harness.hh"

using namespace pdr;
using namespace pdr::test;
using router::RouterConfig;
using router::RouterModel;
using sim::FlitType;

namespace {

/** DirectRouting that counts its calls.  Its next class is derived
 *  from the packet's destination, so the stamp on every departing
 *  flit can be checked. */
class CountingRouting : public DirectRouting
{
  public:
    explicit CountingRouting(bool adaptive) : adaptive_(adaptive) {}

    int
    route(sim::NodeId here, const sim::Flit &head) const override
    {
        routes++;
        return DirectRouting::route(here, head);
    }

    void
    candidates(sim::NodeId here, const sim::Flit &head,
               std::vector<int> &out) const override
    {
        candidateCalls++;
        out.assign(1, DirectRouting::route(here, head));
    }

    bool isAdaptive() const override { return adaptive_; }

    std::uint32_t
    vcMask(const sim::Flit &, sim::NodeId, int, int) const override
    {
        masks++;
        return ~0u;
    }

    int
    nextClass(const sim::Flit &f, sim::NodeId, int) const override
    {
        classes++;
        return classFor(f);
    }

    static int classFor(const sim::Flit &f) { return int(f.dest) + 1; }

    mutable std::uint64_t routes = 0;
    mutable std::uint64_t candidateCalls = 0;
    mutable std::uint64_t masks = 0;
    mutable std::uint64_t classes = 0;

  private:
    bool adaptive_;
};

constexpr int kOutPort = 4;
constexpr int kPacketLength = 4;
constexpr int kPacketsPerVc = 4;

RouterConfig
config(RouterModel model)
{
    RouterConfig cfg;
    cfg.model = model;
    cfg.numVcs = model == RouterModel::Wormhole ? 1 : 2;
    // Deep enough for every flit sent to one input VC: the jig has no
    // upstream flow control, and blocked heads hold their FIFOs.
    cfg.bufDepth = kPacketLength * kPacketsPerVc;
    return cfg;
}

/**
 * Send kPacketsPerVc packets on every VC of input ports 0-3, all to
 * kOutPort, and run until every flit has left, calling nextWake after
 * each tick as the skipping schedule does.  Returns the packet count.
 */
int
drive(SingleRouter &h, const RouterConfig &cfg)
{
    h.autoCredit(true);
    sim::PacketId id = 0;
    for (int k = 0; k < kPacketsPerVc; k++) {
        for (int port = 0; port < 4; port++) {
            for (int vc = 0; vc < cfg.numVcs; vc++) {
                id++;
                for (int i = 0; i < kPacketLength; i++) {
                    const FlitType t = i == 0 ? FlitType::Head
                                       : i == kPacketLength - 1
                                           ? FlitType::Tail
                                           : FlitType::Body;
                    h.inject(port, SingleRouter::makeFlit(
                                       id, t, vc, kOutPort,
                                       std::uint8_t(i)));
                }
            }
        }
    }
    const int packets = int(id);
    int departed = 0;
    for (int c = 0; c < 5000 && departed < packets * kPacketLength;
         c++) {
        for (const auto &[port, f] : h.step()) {
            EXPECT_EQ(port, kOutPort);
            EXPECT_EQ(int(f.vclass), CountingRouting::classFor(f))
                << "packet " << f.packet << " flit " << int(f.seq);
            departed++;
        }
        h.router().nextWake(h.now() - 1);
    }
    EXPECT_EQ(departed, packets * kPacketLength);
    EXPECT_TRUE(h.router().quiescent());
    return packets;
}

} // namespace

TEST(RouteOnce, DeterministicRoutingRunsOncePerRoutedHead)
{
    for (RouterModel model :
         {RouterModel::Wormhole, RouterModel::VirtualChannel,
          RouterModel::SpecVirtualChannel}) {
        SCOPED_TRACE(router::toString(model));
        const RouterConfig cfg = config(model);
        CountingRouting routing(/*adaptive=*/false);
        SingleRouter h(cfg, sim::Invalid, &routing);
        const int packets = drive(h, cfg);
        // Every packet's head is routed here once: on arrival at an
        // idle VC or at tail takeover.
        EXPECT_EQ(routing.routes, std::uint64_t(packets));
        EXPECT_EQ(routing.masks, std::uint64_t(packets));
        EXPECT_EQ(routing.classes, std::uint64_t(packets));
        EXPECT_EQ(routing.candidateCalls, 0u);
        if (model == RouterModel::SpecVirtualChannel) {
            // One speculative bid per VA attempt: the heads did retry
            // VA for many cycles.
            EXPECT_GT(h.router().statsAt(h.now()).specSaAttempts,
                      std::uint64_t(4 * packets));
        }
    }
}

TEST(RouteOnce, AdaptiveRoutingReroutesEveryVaAttempt)
{
    // Footnote 5: an adaptive head re-iterates through routing on
    // every VA attempt, and its VC mask and class follow the route.
    // Under specVC each attempt issues one speculative bid, so the
    // attempts are counted exactly by specSaAttempts.
    const RouterConfig cfg = config(RouterModel::SpecVirtualChannel);
    CountingRouting routing(/*adaptive=*/true);
    SingleRouter h(cfg, sim::Invalid, &routing);
    const int packets = drive(h, cfg);
    const std::uint64_t attempts =
        h.router().statsAt(h.now()).specSaAttempts;
    EXPECT_GT(attempts, std::uint64_t(4 * packets));
    EXPECT_EQ(routing.candidateCalls, std::uint64_t(packets) + attempts);
    EXPECT_EQ(routing.masks, routing.candidateCalls);
    EXPECT_EQ(routing.classes, routing.candidateCalls);
    EXPECT_EQ(routing.routes, 0u);
}
