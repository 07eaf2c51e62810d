/** @file Tests for the string-keyed parameter schema. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/params.hh"

using namespace pdr;
using api::SimConfig;
namespace params = api::params;

namespace {

/** Expect fn() to throw std::invalid_argument mentioning `substr`. */
template <typename Fn>
void
expectInvalid(Fn fn, const std::string &substr)
{
    try {
        fn();
        FAIL() << "expected std::invalid_argument (" << substr << ")";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(substr),
                  std::string::npos)
            << "message: " << e.what();
    }
}

} // namespace

TEST(Params, SetAndGetEveryKeyRoundTrips)
{
    SimConfig cfg;
    for (const auto &info : params::schema()) {
        // Reading, writing back, and re-reading must be stable.
        auto v = params::get(cfg, info.key);
        params::set(cfg, info.key, v);
        EXPECT_EQ(params::get(cfg, info.key), v) << info.key;
        EXPECT_FALSE(info.description.empty()) << info.key;
    }
}

TEST(Params, SetUpdatesTypedFields)
{
    SimConfig cfg;
    params::set(cfg, "net.k", "4");
    EXPECT_EQ(cfg.net.k, 4);
    params::set(cfg, "router.model", "specVC");
    EXPECT_EQ(cfg.net.router.model,
              router::RouterModel::SpecVirtualChannel);
    params::set(cfg, "router.single_cycle", "true");
    EXPECT_TRUE(cfg.net.router.singleCycle);
    params::set(cfg, "traffic.pattern", "tornado");
    EXPECT_EQ(cfg.net.pattern, "tornado");
    params::set(cfg, "net.topology", "torus");
    EXPECT_EQ(cfg.net.topology, "torus");
    params::set(cfg, "traffic.injection_rate", "0.25");
    EXPECT_DOUBLE_EQ(cfg.net.injectionRate, 0.25);
    params::set(cfg, "sim.seed", "42");
    EXPECT_EQ(cfg.net.seed, 42u);
    params::set(cfg, "sim.max_cycles", "12345");
    EXPECT_EQ(cfg.maxCycles, 12345u);
}

TEST(Params, OfferedFractionAliasUsesCapacity)
{
    SimConfig cfg;
    params::set(cfg, "net.k", "8");
    params::set(cfg, "traffic.offered_fraction", "0.5");
    // Mesh capacity at k=8 is 0.5 flits/node/cycle.
    EXPECT_DOUBLE_EQ(cfg.net.injectionRate, 0.25);
    EXPECT_EQ(params::get(cfg, "traffic.offered_fraction"), "0.5");
}

TEST(Params, UnknownKeyThrowsNamingKey)
{
    SimConfig cfg;
    expectInvalid([&] { params::set(cfg, "net.bogus", "1"); },
                  "net.bogus");
    expectInvalid([&] { (void)params::get(cfg, "router.nope"); },
                  "router.nope");
    // Retired: the router has one allocation engine.
    expectInvalid(
        [&] { params::set(cfg, "router.scalar_alloc", "true"); },
        "router.scalar_alloc");
}

TEST(Params, InvalidValuesThrowNamingKey)
{
    SimConfig cfg;
    expectInvalid([&] { params::set(cfg, "net.k", "banana"); },
                  "net.k");
    expectInvalid([&] { params::set(cfg, "net.k", "1"); }, "net.k");
    expectInvalid(
        [&] { params::set(cfg, "traffic.injection_rate", "1.5"); },
        "traffic.injection_rate");
    expectInvalid(
        [&] { params::set(cfg, "traffic.injection_rate", "nan"); },
        "traffic.injection_rate");
    expectInvalid(
        [&] { params::set(cfg, "traffic.offered_fraction", "nan"); },
        "traffic.offered_fraction");
    expectInvalid(
        [&] { params::set(cfg, "router.single_cycle", "maybe"); },
        "router.single_cycle");
    expectInvalid([&] { params::set(cfg, "router.model", "mesh"); },
                  "router.model");
    expectInvalid([&] { params::set(cfg, "sim.mode", "warp"); },
                  "sim.mode");
    expectInvalid(
        [&] { params::set(cfg, "net.topology", "hypercube"); },
        "hypercube");
    expectInvalid(
        [&] { params::set(cfg, "traffic.pattern", "zigzag"); },
        "zigzag");
    // Flit::seq numbers at most 256 flits.
    expectInvalid(
        [&] { params::set(cfg, "traffic.packet_length", "257"); },
        "traffic.packet_length");
}

TEST(Params, DumpParseRoundTripsBuiltinScenarios)
{
    std::vector<SimConfig> scenarios;

    scenarios.emplace_back();  // Defaults.

    SimConfig torus;
    torus.net.topology = "torus";
    torus.net.router.model = router::RouterModel::SpecVirtualChannel;
    torus.net.router.numVcs = 4;
    torus.net.setOfferedFraction(0.37);
    scenarios.push_back(torus);

    for (const char *model : {"WH", "VC", "specVC"}) {
        SimConfig c;
        params::set(c, "router.model", model);
        if (std::string(model) == "WH")
            c.net.router.bufDepth = 8;
        else
            c.net.router.numVcs = 2;
        scenarios.push_back(c);
    }

    for (const char *pattern : {"uniform", "transpose", "bitcomp",
                                "tornado", "neighbor", "hotspot"}) {
        SimConfig c;
        c.net.pattern = pattern;
        scenarios.push_back(c);
    }

    SimConfig fixed;
    fixed.mode = "fixed";
    fixed.horizon = 22000;
    fixed.net.injectionRate = 1.0;
    scenarios.push_back(fixed);

    SimConfig adaptive;
    adaptive.net.routing = "westfirst";
    adaptive.net.creditLatency = 4;
    scenarios.push_back(adaptive);

    for (std::size_t i = 0; i < scenarios.size(); i++) {
        const auto &cfg = scenarios[i];
        auto text = params::dump(cfg);
        auto back = params::parse(text);
        EXPECT_TRUE(back == cfg) << "scenario " << i << ":\n" << text;
        EXPECT_EQ(params::dump(back), text) << "scenario " << i;
    }
}

TEST(Params, ApplyReportsLineNumbers)
{
    SimConfig cfg;
    expectInvalid([&] { params::apply(cfg, "net.k = 8\nwat\n"); },
                  "line 2");
    expectInvalid(
        [&] { params::apply(cfg, "# ok\n\nnet.bogus = 3\n"); },
        "line 3");
}

TEST(Params, ValidateCatchesCrossFieldErrors)
{
    SimConfig cfg;
    cfg.net.router.model = router::RouterModel::Wormhole;
    cfg.net.router.numVcs = 2;
    expectInvalid([&] { params::validate(cfg); }, "wormhole");

    SimConfig torus;
    torus.net.topology = "torus";
    torus.net.router.numVcs = 1;
    expectInvalid([&] { params::validate(torus); }, "dateline");

    SimConfig bad_combo;
    bad_combo.net.topology = "torus";
    bad_combo.net.router.model = router::RouterModel::VirtualChannel;
    bad_combo.net.router.numVcs = 2;
    bad_combo.net.routing = "xy";
    expectInvalid([&] { params::validate(bad_combo); }, "xy");

    SimConfig bitcomp;
    bitcomp.net.k = 6;  // 36 nodes: not a power of two.
    bitcomp.net.pattern = "bitcomp";
    expectInvalid([&] { params::validate(bitcomp); }, "bitcomp");

    // validate() must enforce everything the Network ctor enforces.
    SimConfig ports;
    ports.net.router.numPorts = 3;
    expectInvalid([&] { params::validate(ports); },
                  "router.num_ports");

    SimConfig long_packets;
    long_packets.net.packetLength = 257;
    expectInvalid([&] { params::validate(long_packets); },
                  "traffic.packet_length");

    SimConfig good;
    good.net.router.model = router::RouterModel::SpecVirtualChannel;
    good.net.router.numVcs = 2;
    good.net.packetLength = 256;
    EXPECT_NO_THROW(params::validate(good));
}
