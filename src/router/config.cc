#include "router/config.hh"

#include <stdexcept>

#include "common/logging.hh"

namespace pdr::router {

const char *
toString(RouterModel m)
{
    switch (m) {
      case RouterModel::Wormhole: return "WH";
      case RouterModel::VirtualChannel: return "VC";
      case RouterModel::SpecVirtualChannel: return "specVC";
    }
    return "?";
}

int
RouterConfig::pipelineDepth() const
{
    if (singleCycle)
        return 1;
    switch (model) {
      case RouterModel::Wormhole: return 3;
      case RouterModel::VirtualChannel: return 4;
      case RouterModel::SpecVirtualChannel: return 3;
    }
    return 1;
}

RouterModel
routerModelFromString(const std::string &name)
{
    if (name == "WH")
        return RouterModel::Wormhole;
    if (name == "VC")
        return RouterModel::VirtualChannel;
    if (name == "specVC")
        return RouterModel::SpecVirtualChannel;
    throw std::invalid_argument("unknown router model '" + name +
                                "' (known: WH, VC, specVC)");
}

void
RouterConfig::validate() const
{
    if (numPorts != 0 && numPorts < 2) {
        throw std::invalid_argument(csprintf(
            "router.num_ports: routers need at least 2 ports "
            "(0 = derive from the topology), got %d", numPorts));
    }
    if (numPorts > 64) {
        throw std::invalid_argument(csprintf(
            "router.num_ports must be <= 64 (ports are staged as one "
            "packed bid word), got %d", numPorts));
    }
    if (numVcs < 1) {
        throw std::invalid_argument(csprintf(
            "router.num_vcs must be >= 1, got %d", numVcs));
    }
    if (numVcs > 64) {
        throw std::invalid_argument(csprintf(
            "router.num_vcs must be <= 64 (a port's VCs are staged as "
            "one packed bid word), got %d", numVcs));
    }
    if (model == RouterModel::Wormhole && numVcs != 1) {
        throw std::invalid_argument(csprintf(
            "wormhole routers have no virtual channels "
            "(router.num_vcs == 1), got %d", numVcs));
    }
    if (bufDepth < 1) {
        throw std::invalid_argument(csprintf(
            "router.buf_depth must be >= 1, got %d", bufDepth));
    }
}

} // namespace pdr::router
