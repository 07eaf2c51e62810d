/**
 * @file
 * Traffic patterns: mappings from source node to destination node.
 *
 * The paper evaluates uniformly distributed traffic (chosen because flow
 * control is relatively insensitive to the pattern, unlike routing).
 * The standard synthetic patterns of the interconnection-network
 * literature are provided as extensions for the example programs and
 * ablation benches.  Three classes cover them: UniformPattern,
 * HotspotPattern and PermutationPattern, the fixed destination table
 * that every fixed pattern's registry entry fills in.
 *
 * Patterns are defined over *terminal node* indices (0 .. numNodes-1 of
 * the lattice), so they respect concentration: on a cmesh the
 * permutation patterns permute all c*k*k nodes, and geometric patterns
 * (tornado, neighbor) shift the hosting router while keeping the local
 * index.  Factories receive a PatternEnv carrying the lattice (by
 * value -- patterns must not dangle when built from a temporary) plus
 * the permutation-file path for "permfile".
 */

#ifndef PDR_TRAFFIC_PATTERN_HH
#define PDR_TRAFFIC_PATTERN_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "common/rng.hh"
#include "sim/types.hh"
#include "topo/lattice.hh"

namespace pdr::traffic {

/** Everything a pattern factory may draw on. */
struct PatternEnv
{
    topo::Lattice lattice;
    /** Path of the permutation file (traffic.permfile). */
    std::string permfile;
};

/** Destination selector for generated packets. */
class TrafficPattern
{
  public:
    virtual ~TrafficPattern() = default;

    /** Destination for a packet created at `src` (never src itself). */
    virtual sim::NodeId pick(sim::NodeId src, Rng &rng) const = 0;
};

/** Uniform random over all other nodes. */
class UniformPattern : public TrafficPattern
{
  public:
    explicit UniformPattern(int num_nodes);
    sim::NodeId pick(sim::NodeId src, Rng &rng) const override;

  private:
    int numNodes_;
};

/**
 * A fixed destination per node: node i sends to `dest[i]`.  A *fixed
 * point* (an entry naming its own node) draws uniformly over the other
 * nodes instead, so every node still offers load; no other pick draws
 * from the RNG.  Every fixed pattern (transpose, bitcomp, tornado,
 * neighbor, bitrev, shuffle, permfile) is a table of this class.
 */
class PermutationPattern : public TrafficPattern
{
  public:
    /** One entry per node; throws std::invalid_argument if an entry
     *  names no node. */
    explicit PermutationPattern(std::vector<sim::NodeId> dest);
    sim::NodeId pick(sim::NodeId src, Rng &rng) const override;

    /** Every node's entry, fixed points included. */
    const std::vector<sim::NodeId> &table() const { return dest_; }

  private:
    std::vector<sim::NodeId> dest_;
    UniformPattern uniform_;
};

/**
 * Hotspot: with probability `fraction`, send to the hotspot node;
 * otherwise uniform random.
 */
class HotspotPattern : public TrafficPattern
{
  public:
    HotspotPattern(int num_nodes, sim::NodeId hotspot, double fraction);
    sim::NodeId pick(sim::NodeId src, Rng &rng) const override;

  private:
    UniformPattern uniform_;
    sim::NodeId hotspot_;
    double fraction_;
};

/** Builds a pattern for a lattice (plus pattern-specific inputs). */
using PatternFactory =
    std::function<std::unique_ptr<TrafficPattern>(const PatternEnv &)>;

/**
 * String-keyed pattern registry.  The built-in patterns (uniform,
 * transpose, bitcomp, tornado, neighbor, hotspot, bitrev, shuffle,
 * permfile) are pre-registered; new scenarios add themselves in one
 * line.  A fixed pattern is a destination table, not a class:
 *
 *   PatternRegistry::instance().add("mine",
 *       [](const PatternEnv &env) {
 *           std::vector<sim::NodeId> dest = ...;  // one per node
 *           return std::make_unique<PermutationPattern>(dest);
 *       },
 *       "what it does");
 *
 * and are then reachable from NetworkConfig::pattern, experiment
 * files, and the pdr CLI by name.
 */
class PatternRegistry : public FactoryRegistry<PatternFactory>
{
  public:
    static PatternRegistry &instance();

  private:
    PatternRegistry();
};

/** Build the registered pattern `name`; throws on unknown names. */
std::unique_ptr<TrafficPattern> makePattern(const std::string &name,
                                            const PatternEnv &env);

/** Convenience for tests/examples: a k x k mesh environment. */
std::unique_ptr<TrafficPattern> makePattern(const std::string &name,
                                            int k);

} // namespace pdr::traffic

#endif // PDR_TRAFFIC_PATTERN_HH
