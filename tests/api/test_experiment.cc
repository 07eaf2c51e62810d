/** @file Tests for the declarative Experiment layer. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/params.hh"
#include "exec/sweep.hh"

using namespace pdr;
using api::Experiment;
namespace params = api::params;

namespace {

const char *kText = R"(# a latency-throughput comparison
name = demo
description = two routers over three loads

net.k = 4
traffic.pattern = uniform
sim.warmup = 200
sim.sample_packets = 300

sweep.loads = 0.1, 0.2 0.3

[curve wh]
router.model = WH
router.buf_depth = 8

[curve spec]
router.model = specVC
router.num_vcs = 2
router.buf_depth = 4
)";

} // namespace

TEST(Experiment, ParseReadsStructure)
{
    auto exp = Experiment::parse(kText);
    EXPECT_EQ(exp.name, "demo");
    EXPECT_EQ(exp.description, "two routers over three loads");
    EXPECT_EQ(exp.base.net.k, 4);
    EXPECT_EQ(exp.base.net.warmup, 200u);
    ASSERT_EQ(exp.axes.size(), 1u);
    EXPECT_EQ(exp.axes[0].key, Experiment::kLoadsKey);
    EXPECT_EQ(exp.axes[0].values,
              (std::vector<std::string>{"0.1", "0.2", "0.3"}));
    ASSERT_EQ(exp.curves.size(), 2u);
    EXPECT_EQ(exp.curves[0].label, "wh");
    EXPECT_EQ(exp.curves[1].label, "spec");
    EXPECT_EQ(exp.curves[1].overrides.size(), 3u);
}

TEST(Experiment, PointsExpandLoadsMajorCurvesInner)
{
    auto exp = Experiment::parse(kText);
    auto points = exp.points();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].label, "wh@0.100");
    EXPECT_EQ(points[1].label, "spec@0.100");
    EXPECT_EQ(points[2].label, "wh@0.200");
    EXPECT_EQ(points[5].label, "spec@0.300");
    EXPECT_EQ(points[1].cfg.net.router.model,
              router::RouterModel::SpecVirtualChannel);
    EXPECT_EQ(points[0].cfg.net.router.bufDepth, 8);
    EXPECT_NEAR(points[2].cfg.net.offeredFraction(), 0.2, 1e-9);
}

TEST(Experiment, GenericAxisAndMultiAxisOrder)
{
    Experiment exp;
    exp.set("net.k", "4");
    exp.set("sweep.router.buf_depth", "2 4");
    exp.set("sweep.loads", "0.1 0.2");
    auto points = exp.points();
    // buf_depth declared first = outermost; loads inner; no curves.
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].label, "/router.buf_depth=2@0.100");
    EXPECT_EQ(points[0].cfg.net.router.bufDepth, 2);
    EXPECT_NEAR(points[1].cfg.net.offeredFraction(), 0.2, 1e-9);
    EXPECT_EQ(points[2].cfg.net.router.bufDepth, 4);
}

TEST(Experiment, LoadAxisNormalizesToThePointsFinalTopology)
{
    // The loads axis is declared BEFORE the topology axis; the
    // offered fraction must nevertheless be computed from each
    // point's final topology (torus capacity is 2x the mesh's).
    Experiment exp;
    exp.set("net.k", "4");
    exp.set("router.model", "specVC");
    exp.set("router.num_vcs", "2");
    exp.set("sweep.loads", "0.4");
    exp.set("sweep.net.topology", "mesh torus");
    auto points = exp.points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].cfg.net.topology, "mesh");
    EXPECT_EQ(points[1].cfg.net.topology, "torus");
    EXPECT_NEAR(points[0].cfg.net.offeredFraction(), 0.4, 1e-9);
    EXPECT_NEAR(points[1].cfg.net.offeredFraction(), 0.4, 1e-9);
    EXPECT_GT(points[1].cfg.net.injectionRate,
              points[0].cfg.net.injectionRate);
}

TEST(Experiment, DumpParseRoundTrips)
{
    auto exp = Experiment::parse(kText);
    auto back = Experiment::parse(exp.dump());
    EXPECT_TRUE(back == exp) << exp.dump();
    EXPECT_EQ(back.dump(), exp.dump());
}

TEST(Experiment, ParseErrorsNameTheLine)
{
    auto expect_line = [](const char *text, const char *substr) {
        try {
            Experiment::parse(text);
            FAIL() << "expected std::invalid_argument for " << text;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(substr),
                      std::string::npos)
                << "message: " << e.what();
        }
    };
    expect_line("net.k = 8\nnet.bogus = 1\n", "line 2");
    expect_line("net.bogus = 1\n", "net.bogus");
    expect_line("[section nope]\n", "curve");
    expect_line("[curve a]\nsweep.loads = 0.1\n", "not allowed");
    expect_line("sweep.loads =\n", "no values");
    expect_line("sweep.net.bogus = 1 2\n", "sweep.net.bogus");
    expect_line("net.k\n", "key = value");
}

TEST(Experiment, CliStyleOverridesReplaceAxes)
{
    auto exp = Experiment::parse(kText);
    exp.set("sweep.loads", "0.4 0.5");
    ASSERT_EQ(exp.axes.size(), 1u);
    EXPECT_EQ(exp.axes[0].values,
              (std::vector<std::string>{"0.4", "0.5"}));
    exp.set("net.k", "8");
    EXPECT_EQ(exp.base.net.k, 8);
    EXPECT_THROW(exp.set("sweep.nope", "1"), std::invalid_argument);
}

TEST(Experiment, ValidateChecksEveryPoint)
{
    auto exp = Experiment::parse(kText);
    EXPECT_NO_THROW(exp.validate());
    // A curve override that is per-key valid but cross-field invalid:
    // wormhole with 2 VCs is only caught by validate().
    exp.curves[0].overrides.push_back({"router.num_vcs", "2"});
    EXPECT_THROW(exp.validate(), std::invalid_argument);
}

TEST(Experiment, PointsRunThroughTheSweepEngine)
{
    auto exp = Experiment::parse(kText);
    auto results = exec::SweepRunner().run(exp.points());
    ASSERT_EQ(results.points.size(), 6u);
    results.throwIfFailed();
    for (const auto &p : results.points) {
        EXPECT_TRUE(p.ok);
        EXPECT_GT(p.res.avgLatency, 0.0) << p.label;
    }
}
