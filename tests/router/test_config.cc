/** @file Tests for RouterConfig validation and derived parameters. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "router/config.hh"

using namespace pdr::router;

namespace {

/** Expect cfg.validate() to throw std::invalid_argument whose message
 *  contains `substr`. */
void
expectInvalid(const RouterConfig &cfg, const std::string &substr)
{
    try {
        cfg.validate();
        FAIL() << "expected std::invalid_argument (" << substr << ")";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(substr),
                  std::string::npos)
            << "message: " << e.what();
    }
}

} // namespace

TEST(RouterConfigTest, PipelineDepths)
{
    RouterConfig cfg;
    cfg.model = RouterModel::Wormhole;
    EXPECT_EQ(cfg.pipelineDepth(), 3);
    cfg.model = RouterModel::VirtualChannel;
    EXPECT_EQ(cfg.pipelineDepth(), 4);
    cfg.model = RouterModel::SpecVirtualChannel;
    EXPECT_EQ(cfg.pipelineDepth(), 3);
    cfg.singleCycle = true;
    EXPECT_EQ(cfg.pipelineDepth(), 1);
}

TEST(RouterConfigTest, Names)
{
    EXPECT_STREQ(toString(RouterModel::Wormhole), "WH");
    EXPECT_STREQ(toString(RouterModel::VirtualChannel), "VC");
    EXPECT_STREQ(toString(RouterModel::SpecVirtualChannel), "specVC");
}

TEST(RouterConfigValidate, WormholeWithVcsRejected)
{
    RouterConfig cfg;
    cfg.model = RouterModel::Wormhole;
    cfg.numVcs = 2;
    expectInvalid(cfg, "wormhole");
}

TEST(RouterConfigValidate, BadPortCountRejected)
{
    RouterConfig cfg;
    cfg.numPorts = 1;
    expectInvalid(cfg, "router.num_ports");
}

TEST(RouterConfigValidate, BadBufDepthRejected)
{
    RouterConfig cfg;
    cfg.bufDepth = 0;
    expectInvalid(cfg, "router.buf_depth");
}

TEST(RouterConfigValidate, ModelFromString)
{
    EXPECT_EQ(routerModelFromString("WH"), RouterModel::Wormhole);
    EXPECT_EQ(routerModelFromString("VC"), RouterModel::VirtualChannel);
    EXPECT_EQ(routerModelFromString("specVC"),
              RouterModel::SpecVirtualChannel);
    EXPECT_THROW(routerModelFromString("bogus"), std::invalid_argument);
}
