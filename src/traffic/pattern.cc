#include "traffic/pattern.hh"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/logging.hh"
#include "common/math.hh"
#include "common/parse.hh"

namespace pdr::traffic {

UniformPattern::UniformPattern(int num_nodes) : numNodes_(num_nodes)
{
    pdr_assert(numNodes_ >= 2);
}

sim::NodeId
UniformPattern::pick(sim::NodeId src, Rng &rng) const
{
    // Uniform over the other N-1 nodes.
    auto d = sim::NodeId(rng.range(numNodes_ - 1));
    if (d >= src)
        d++;
    return d;
}

PermutationPattern::PermutationPattern(std::vector<sim::NodeId> dest)
    : dest_(std::move(dest)), uniform_(int(dest_.size()))
{
    for (std::size_t i = 0; i < dest_.size(); i++) {
        if (dest_[i] < 0 || std::size_t(dest_[i]) >= dest_.size()) {
            throw std::invalid_argument(csprintf(
                "permutation entry %zu names node %d, outside [0, %zu)",
                i, int(dest_[i]), dest_.size()));
        }
    }
}

sim::NodeId
PermutationPattern::pick(sim::NodeId src, Rng &rng) const
{
    sim::NodeId d = dest_[std::size_t(src)];
    return d == src ? uniform_.pick(src, rng) : d;
}

HotspotPattern::HotspotPattern(int num_nodes, sim::NodeId hotspot,
                               double fraction)
    : uniform_(num_nodes), hotspot_(hotspot), fraction_(fraction)
{
    pdr_assert(fraction >= 0.0 && fraction <= 1.0);
}

sim::NodeId
HotspotPattern::pick(sim::NodeId src, Rng &rng) const
{
    if (src != hotspot_ && rng.bernoulli(fraction_))
        return hotspot_;
    return uniform_.pick(src, rng);
}

namespace {

/** The pattern sending node i to `f(i)`, for each of `num_nodes`. */
template <class F>
std::unique_ptr<TrafficPattern>
fixedPattern(int num_nodes, F f)
{
    std::vector<sim::NodeId> dest;
    for (int i = 0; i < num_nodes; i++)
        dest.push_back(sim::NodeId(f(unsigned(i))));
    return std::make_unique<PermutationPattern>(std::move(dest));
}

/** log2 of a power-of-two node count; throws for other counts. */
int
patternBits(const char *pattern, int num_nodes)
{
    if (!isPow2(unsigned(num_nodes))) {
        throw std::invalid_argument(csprintf(
            "traffic.pattern=%s needs a power-of-two node count, "
            "got %d nodes", pattern, num_nodes));
    }
    int b = 0;
    while ((1 << b) < num_nodes)
        b++;
    return b;
}

/** Every node to the same local index `shift` routers further along
 *  the first dimension (wrapping). */
std::unique_ptr<TrafficPattern>
shiftFirstDim(const topo::Lattice &lat, int shift)
{
    int k = lat.radix(0);
    return fixedPattern(lat.numNodes(), [&](unsigned i) {
        sim::NodeId r = lat.routerOf(sim::NodeId(i));
        int x = lat.coordOf(r, 0);
        return lat.nodeAt(r + ((x + shift) % k - x),
                          lat.localIndexOf(sim::NodeId(i)));
    });
}

/**
 * The destination table in permutation file `path`: one destination
 * node index per line, line i naming the destination of node i.
 * Blank lines and #-comments are skipped.  The file must define a
 * permutation of 0..N-1; errors name the offending line.
 */
std::vector<sim::NodeId>
loadPermFile(int num_nodes, const std::string &path)
{
    if (path.empty()) {
        throw std::invalid_argument(
            "traffic.pattern=permfile needs traffic.permfile=<path>");
    }
    std::ifstream in(path);
    if (!in) {
        throw std::invalid_argument(
            "traffic.permfile: cannot open '" + path + "'");
    }

    std::vector<sim::NodeId> dest;
    std::vector<int> seen_at(std::size_t(num_nodes), 0);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        // Strip comments and whitespace.
        line = line.substr(0, line.find('#'));
        auto b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        auto e = line.find_last_not_of(" \t\r");
        std::string what =
            csprintf("traffic.permfile %s: line %d", path.c_str(), lineno);
        if (int(dest.size()) == num_nodes) {
            throw std::invalid_argument(
                csprintf("%s: more than %d entries", what.c_str(),
                         num_nodes));
        }
        auto v = sim::NodeId(parseInt(what, line.substr(b, e - b + 1), 0,
                                      num_nodes - 1));
        int &seen = seen_at[std::size_t(v)];
        if (seen != 0) {
            throw std::invalid_argument(csprintf(
                "%s: destination %d already used on line %d (the file "
                "must be a permutation)", what.c_str(), int(v), seen));
        }
        seen = lineno;
        dest.push_back(v);
    }
    if (int(dest.size()) != num_nodes) {
        throw std::invalid_argument(csprintf(
            "traffic.permfile %s: expected %d entries (one per node), "
            "got %zu", path.c_str(), num_nodes, dest.size()));
    }
    return dest;
}

} // namespace

PatternRegistry::PatternRegistry()
    : FactoryRegistry<PatternFactory>("traffic pattern")
{
    add("uniform",
        [](const PatternEnv &env) {
            return std::make_unique<UniformPattern>(
                env.lattice.numNodes());
        },
        "uniform random over all other nodes (the paper's workload)");
    add("transpose",
        [](const PatternEnv &env) {
            int n = env.lattice.numNodes();
            int side = int(std::lround(std::sqrt(double(n))));
            if (side * side != n) {
                throw std::invalid_argument(csprintf(
                    "traffic.pattern=transpose needs a perfect-square "
                    "node count, got %d nodes", n));
            }
            return fixedPattern(n, [side](unsigned i) {
                return int(i) % side * side + int(i) / side;
            });
        },
        "matrix transpose over the node square: (x, y) -> (y, x)");
    add("bitcomp",
        [](const PatternEnv &env) {
            int n = env.lattice.numNodes();
            patternBits("bitcomp", n);
            return fixedPattern(n, [n](unsigned i) {
                return ~i & unsigned(n - 1);
            });
        },
        "bit complement: node i -> ~i (power-of-two node counts)");
    add("tornado",
        [](const PatternEnv &env) {
            int shift = (env.lattice.radix(0) + 1) / 2 - 1;
            return shiftFirstDim(env.lattice, shift == 0 ? 1 : shift);
        },
        "tornado: half-way around the first dimension");
    add("neighbor",
        [](const PatternEnv &env) {
            return shiftFirstDim(env.lattice, 1);
        },
        "nearest neighbor: +1 router in the first dimension "
        "(wrapping)");
    add("bitrev",
        [](const PatternEnv &env) {
            int n = env.lattice.numNodes();
            int bits = patternBits("bitrev", n);
            return fixedPattern(n, [bits](unsigned i) {
                unsigned d = 0;
                for (int b = 0; b < bits; b++)
                    d |= ((i >> b) & 1u) << (bits - 1 - b);
                return d;
            });
        },
        "bit reversal: node i -> reverse of i's bits (power-of-two "
        "node counts)");
    add("shuffle",
        [](const PatternEnv &env) {
            int n = env.lattice.numNodes();
            int bits = patternBits("shuffle", n);
            return fixedPattern(n, [n, bits](unsigned i) {
                return ((i << 1) | (i >> (bits - 1))) & unsigned(n - 1);
            });
        },
        "perfect shuffle: node i -> rotate-left of i's bits "
        "(power-of-two node counts)");
    add("hotspot",
        [](const PatternEnv &env) {
            const auto &lat = env.lattice;
            std::vector<int> center(std::size_t(lat.dims()));
            for (int d = 0; d < lat.dims(); d++)
                center[std::size_t(d)] = lat.radix(d) / 2;
            return std::make_unique<HotspotPattern>(
                lat.numNodes(), lat.nodeAt(lat.routerAt(center), 0),
                0.1);
        },
        "10% of traffic to the center node, the rest uniform");
    add("permfile",
        [](const PatternEnv &env) {
            return std::make_unique<PermutationPattern>(
                loadPermFile(env.lattice.numNodes(), env.permfile));
        },
        "explicit permutation from traffic.permfile (one destination "
        "per line)");
}

PatternRegistry &
PatternRegistry::instance()
{
    // pdr-lint: allow(PDR-STA-MUT) registration-time singleton;
    // read-only during simulation, lookups are by name not order.
    static PatternRegistry reg;
    return reg;
}

std::unique_ptr<TrafficPattern>
makePattern(const std::string &name, const PatternEnv &env)
{
    return PatternRegistry::instance().at(name)(env);
}

std::unique_ptr<TrafficPattern>
makePattern(const std::string &name, int k)
{
    return makePattern(name, {topo::Lattice::mesh2D(k), ""});
}

} // namespace pdr::traffic
