/**
 * @file
 * Runtime invariant auditor (sim::Auditor + Network audit hooks).
 *
 * The auditor's job is to catch exactness-contract violations at the
 * offending cycle with the offending component named.  These tests
 * prove the detector detects: a clean audited run passes (and runs a
 * nonzero number of checks, bit-identical to an unaudited run), a
 * deliberately corrupted wake-table entry trips [AUD-WAKE] on the next
 * step, so does a router arrival bit cleared over a non-empty
 * channel, a route record gone stale under a routing function that
 * broke its purity contract trips [AUD-BID], a credit dropped from or
 * copied onto a credit channel trips
 * [AUD-CREDIT] on the next step, and a flit dropped from or copied
 * onto a queue trips [AUD-LEAK] at teardown.  The checks run at every
 * worker count: the partitioned stepper runs them on worker 0 with
 * the gang parked.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cctype>
#include <memory>
#include <string>

#include "net/dor_routing.hh"
#include "net/network.hh"
#include "net/registry.hh"
#include "par/stepper.hh"
#include "sim/audit.hh"

using namespace pdr;

namespace {

net::NetworkConfig
auditedConfig()
{
    net::NetworkConfig cfg;
    cfg.k = 4;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 3;
    cfg.injectionRate = 0.3;
    cfg.warmup = 50;
    cfg.samplePackets = 200;
    cfg.seed = 7;
    cfg.audit = true;
    return cfg;
}

/** Index of an ejection channel (one a sink consumes) holding a flit
 *  right now, outside staged mode; numFlitChans() when there is none. */
std::size_t
busyEjectionChannel(net::Network &net)
{
    for (std::size_t i = 0; i < net.numFlitChans(); i++) {
        if (net.flitChanConsumer(i) >= net.snkComp(0) &&
            !net.flitChan(i).empty() && !net.flitChan(i).staged())
            return i;
    }
    return net.numFlitChans();
}

/** Index of a credit channel holding a credit right now, outside
 *  staged mode, that returns credits to a source (`injection`) or to
 *  a router; numCreditChans() when there is none. */
std::size_t
busyCreditChannel(net::Network &net, bool injection)
{
    for (std::size_t i = 0; i < net.numCreditChans(); i++) {
        const bool to_source = net.creditChanConsumer(i) < net.rtrComp(0);
        if (to_source == injection && !net.creditChan(i).empty() &&
            !net.creditChan(i).staged())
            return i;
    }
    return net.numCreditChans();
}

/** Set between cycles to narrow NarrowingDorRouting's VC masks. */
std::atomic<bool> narrowMasks{false};

/** DOR whose VC mask narrows to VC 0 once narrowMasks is set: a
 *  routing function that breaks the purity contract of routing.hh, so
 *  every route record written before the switch goes stale. */
class NarrowingDorRouting : public net::DorRouting
{
  public:
    using net::DorRouting::DorRouting;

    std::uint32_t
    vcMask(const sim::Flit &head, sim::NodeId here, int out_port,
           int num_vcs) const override
    {
        const std::uint32_t mask =
            DorRouting::vcMask(head, here, out_port, num_vcs);
        return narrowMasks.load(std::memory_order_relaxed) ? mask & 1u
                                                           : mask;
    }
};

/** How AUD-CREDIT names credit channel `i`'s upstream credit holder:
 *  "source N" or "router R port P". */
std::string
creditHolderName(const net::Network &net, std::size_t i)
{
    const std::size_t up = net.creditChanConsumer(i);
    if (up < net.rtrComp(0))
        return "source " + std::to_string(up);
    const auto r = sim::NodeId(up - net.rtrComp(0));
    const auto down =
        sim::NodeId(net.creditChanProducer(i) - net.rtrComp(0));
    const auto &lat = net.lattice();
    for (int port = 0; port < lat.numPorts(); port++) {
        if (lat.neighbor(r, port) == down) {
            return "router " + std::to_string(r) + " port " +
                   std::to_string(port);
        }
    }
    ADD_FAILURE() << "no port of router " << r << " leads to " << down;
    return "";
}

} // namespace

TEST(Audit, EnvEnabledParsesTruthyValues)
{
    // Scoped setenv: gtest runs tests in one process, so restore.
    ASSERT_EQ(unsetenv("PDR_AUDIT"), 0);
    EXPECT_FALSE(sim::Auditor::envEnabled());
    for (const char *v : {"1", "true", "yes", "on"}) {
        ASSERT_EQ(setenv("PDR_AUDIT", v, 1), 0);
        EXPECT_TRUE(sim::Auditor::envEnabled()) << v;
    }
    for (const char *v : {"0", "false", "off", ""}) {
        ASSERT_EQ(setenv("PDR_AUDIT", v, 1), 0);
        EXPECT_FALSE(sim::Auditor::envEnabled()) << v;
    }
    ASSERT_EQ(unsetenv("PDR_AUDIT"), 0);
}

TEST(Audit, CleanRunPassesAndCountsChecks)
{
    // Every flow-control model: AUD-BID checks wormhole port holds
    // (bit 0 of the free output-VC word) as well as VC allocations.
    const struct
    {
        router::RouterModel model;
        int numVcs, bufDepth;
    } models[] = {
        {router::RouterModel::Wormhole, 1, 8},
        {router::RouterModel::VirtualChannel, 2, 4},
        {router::RouterModel::SpecVirtualChannel, 2, 4},
    };
    for (const auto &m : models) {
        net::NetworkConfig cfg = auditedConfig();
        cfg.router.model = m.model;
        cfg.router.numVcs = m.numVcs;
        cfg.router.bufDepth = m.bufDepth;
        std::uint64_t serialChecks = 0;
        for (int workers : {1, 2, 4}) {
            SCOPED_TRACE(std::string(router::toString(m.model)) +
                         ", par.workers = " + std::to_string(workers));
            net::Network net(cfg);
            ASSERT_TRUE(net.auditEnabled());
            {
                par::ParConfig pc;
                pc.workers = workers;
                par::ParallelStepper stepper(net, pc);
                ASSERT_EQ(stepper.workers(), workers);
                stepper.run(500);
            }
            EXPECT_NO_THROW(net.auditTeardown());
            ASSERT_NE(net.auditor(), nullptr);
            // Wake-table and conservation checks ran every cycle, the
            // same ones at every worker count.
            EXPECT_GT(net.auditor()->checksRun(), 1000u);
            if (workers == 1)
                serialChecks = net.auditor()->checksRun();
            EXPECT_EQ(net.auditor()->checksRun(), serialChecks);
        }
    }
}

TEST(Audit, AuditedRunIsBitIdenticalToUnaudited)
{
    // The auditor is observational: same config with and without
    // auditing must produce identical deliveries and statistics.
    auto cfg = auditedConfig();
    net::Network audited(cfg);
    cfg.audit = false;
    net::Network plain(cfg);
    ASSERT_FALSE(plain.auditEnabled());

    audited.recordDeliveries(true);
    plain.recordDeliveries(true);
    audited.run(2000);
    plain.run(2000);

    const auto ta = audited.takeDeliveries(), tp = plain.takeDeliveries();
    ASSERT_EQ(ta.size(), tp.size());
    for (std::size_t i = 0; i < ta.size(); i++) {
        EXPECT_EQ(ta[i].packet, tp[i].packet);
        EXPECT_EQ(ta[i].dest, tp[i].dest);
        EXPECT_EQ(ta[i].at, tp[i].at);
        EXPECT_EQ(ta[i].latency, tp[i].latency);
    }
    EXPECT_EQ(audited.latency().count(), plain.latency().count());
    EXPECT_EQ(audited.now(), plain.now());
}

TEST(Audit, CatchesBrokenNextWake)
{
    // Corrupt one wake-table entry to simulate a component whose
    // nextWake() over-sleeps -- the hazard class [AUD-WAKE] exists
    // for.  Router 0's injection channel gets traffic immediately at
    // this load, so a wake planted far in the future contradicts an
    // in-flight item within a few cycles.
    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("par.workers = " + std::to_string(workers));
        net::Network net(auditedConfig());
        par::ParConfig pc;
        pc.workers = workers;
        par::ParallelStepper stepper(net, pc);
        ASSERT_EQ(stepper.workers(), workers);
        stepper.run(20);  // Get traffic in flight.
        net.setWakeAtForTest(net.rtrComp(0), net.now() + 100000);
        try {
            stepper.run(50);
            FAIL() << "corrupted wake table not detected";
        } catch (const sim::AuditError &e) {
            EXPECT_NE(std::string(e.what()).find("AUD-WAKE"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("router 0"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Audit, CatchesClearedArrivalBit)
{
    // Clear one set bit of a router's flit-arrival mask -- a push that
    // failed to flag its channel.  The receive phase would never read
    // that channel again, so [AUD-WAKE] must name the router, the port
    // and the channel kind before the next cycle ticks.
    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("par.workers = " + std::to_string(workers));
        net::Network net(auditedConfig());
        par::ParConfig pc;
        pc.workers = workers;
        par::ParallelStepper stepper(net, pc);
        ASSERT_EQ(stepper.workers(), workers);
        stepper.run(20);  // Get traffic in flight.
        std::string where;
        for (int c = 0; c < 1000 && where.empty(); c++) {
            for (sim::NodeId r = 0; r < net.lattice().numRouters(); r++) {
                int port = net.routerAt(r).dropFlitArrivalForTest();
                if (port >= 0) {
                    where = "router " + std::to_string(r) +
                            ": flit channel into input port " +
                            std::to_string(port) + ":";
                    break;
                }
            }
            if (where.empty())
                stepper.run(1);
        }
        ASSERT_FALSE(where.empty()) << "no flit in flight to hide";
        try {
            stepper.run(1);
            FAIL() << "cleared arrival bit not detected";
        } catch (const sim::AuditError &e) {
            EXPECT_NE(std::string(e.what()).find("AUD-WAKE"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(where),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Audit, CatchesStaleRouteRecord)
{
    // A router computes a head's VC mask and next class once, when it
    // routes the head, and reuses them for the whole packet.  Narrow
    // the routing function's masks between cycles, with the gang
    // parked: every packet routed before then holds a stale record,
    // and [AUD-BID] must name a router holding one on the next step.
    net::RoutingRegistry::instance().add(
        "test_narrowing_dor",
        [](const net::Lattice &lat)
            -> std::unique_ptr<router::RoutingFunction> {
            return std::make_unique<NarrowingDorRouting>(lat);
        },
        "DOR whose VC masks narrow mid-run (audit test)");
    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("par.workers = " + std::to_string(workers));
        narrowMasks = false;
        auto cfg = auditedConfig();
        cfg.routing = "test_narrowing_dor";
        net::Network net(cfg);
        par::ParConfig pc;
        pc.workers = workers;
        par::ParallelStepper stepper(net, pc);
        ASSERT_EQ(stepper.workers(), workers);
        stepper.run(100);  // Packets routed and buffered everywhere.
        narrowMasks = true;
        try {
            stepper.run(1);
            FAIL() << "stale route record not detected";
        } catch (const sim::AuditError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("AUD-BID"), std::string::npos) << what;
            // "..., router N: route record (port P, vc V, route R):
            // stored vcMask 0x.., recomputed 0x1"
            const std::size_t at = what.find(", router ");
            ASSERT_NE(at, std::string::npos) << what;
            EXPECT_TRUE(std::isdigit(
                static_cast<unsigned char>(what[at + 9])))
                << what;
            EXPECT_NE(what.find(": route record (port "),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("recomputed 0x1"), std::string::npos)
                << what;
        }
    }
    narrowMasks = false;
}

TEST(Audit, CatchesLeakedFlit)
{
    // Take one flit off an ejection channel -- the hop no credit loop
    // (AUD-CREDIT) covers -- and either drop it or put it back twice.
    for (bool duplicate : {false, true}) {
        for (int workers : {1, 2, 4}) {
            SCOPED_TRACE(std::string(duplicate ? "duplicated" : "lost") +
                         ", par.workers = " + std::to_string(workers));
            net::Network net(auditedConfig());
            {
                par::ParConfig pc;
                pc.workers = workers;
                par::ParallelStepper stepper(net, pc);
                ASSERT_EQ(stepper.workers(), workers);
                stepper.run(100);
                std::size_t i = busyEjectionChannel(net);
                for (int c = 0; c < 1000 && i == net.numFlitChans();
                     c++) {
                    stepper.run(1);
                    i = busyEjectionChannel(net);
                }
                ASSERT_LT(i, net.numFlitChans()) << "no flit to take";
                auto &chan = net.flitChan(i);
                auto f = chan.pop(sim::CycleNever);
                ASSERT_TRUE(f.has_value());
                if (duplicate) {
                    chan.push(*f, net.now(), 1);
                    chan.push(*f, net.now(), 1);
                }
            }
            try {
                net.auditTeardown();
                FAIL() << "flit conservation break not detected";
            } catch (const sim::AuditError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("AUD-LEAK"), std::string::npos)
                    << what;
                EXPECT_NE(what.find(duplicate ? "1 flit(s) duplicated"
                                              : "1 flit(s) lost"),
                          std::string::npos)
                    << what;
            }
        }
    }
}

TEST(Audit, CatchesLostCredit)
{
    // Take one credit off a busy credit channel between cycles -- once
    // on an inter-router link, once on an injection link -- and either
    // drop it or put it back twice.  The next step must fail
    // [AUD-CREDIT], naming the upstream credit holder and the VC.
    for (bool injection : {false, true}) {
        for (bool duplicate : {false, true}) {
            for (int workers : {1, 2, 4}) {
                SCOPED_TRACE(std::string(injection ? "injection"
                                                   : "inter-router") +
                             (duplicate ? ", duplicated" : ", lost") +
                             ", par.workers = " + std::to_string(workers));
                net::Network net(auditedConfig());
                par::ParConfig pc;
                pc.workers = workers;
                par::ParallelStepper stepper(net, pc);
                ASSERT_EQ(stepper.workers(), workers);
                stepper.run(100);
                std::size_t i = busyCreditChannel(net, injection);
                for (int c = 0; c < 1000 && i == net.numCreditChans();
                     c++) {
                    stepper.run(1);
                    i = busyCreditChannel(net, injection);
                }
                ASSERT_LT(i, net.numCreditChans()) << "no credit to take";
                auto &chan = net.creditChan(i);
                auto credit = chan.pop(sim::CycleNever);
                ASSERT_TRUE(credit.has_value());
                if (duplicate) {
                    chan.push(*credit, net.now());
                    chan.push(*credit, net.now());
                }
                const std::string where = creditHolderName(net, i) +
                                          ": VC " +
                                          std::to_string(credit->vc) + " ";
                try {
                    stepper.step();
                    FAIL() << "credit conservation break not detected";
                } catch (const sim::AuditError &e) {
                    const std::string what = e.what();
                    EXPECT_NE(what.find("AUD-CREDIT"), std::string::npos)
                        << what;
                    EXPECT_NE(what.find(where), std::string::npos)
                        << "expected \"" << where << "\" in " << what;
                }
            }
        }
    }
}

TEST(Audit, CreditConservationSurvivesSweptParameters)
{
    // [AUD-CREDIT] must hold under the parameters the paper's
    // experiments stress: multi-cycle credit return and deeper VCs.
    auto cfg = auditedConfig();
    cfg.creditLatency = 4;
    cfg.router.numVcs = 4;
    cfg.router.bufDepth = 8;
    cfg.injectionRate = 0.5;
    net::Network net(cfg);
    EXPECT_NO_THROW(net.run(1500));
    EXPECT_NO_THROW(net.auditTeardown());
}
