/** @file Tests for traffic patterns and the pattern registry. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "traffic/pattern.hh"

using namespace pdr;
using namespace pdr::traffic;

namespace {
constexpr int K = 8;
constexpr int N = K * K;
} // namespace

TEST(Patterns, UniformNeverPicksSelf)
{
    UniformPattern p(N);
    Rng rng(1);
    for (sim::NodeId src : {0, 7, 31, 63}) {
        for (int i = 0; i < 2000; i++) {
            auto d = p.pick(src, rng);
            EXPECT_NE(d, src);
            EXPECT_GE(d, 0);
            EXPECT_LT(d, N);
        }
    }
}

TEST(Patterns, UniformCoversAllDestinations)
{
    UniformPattern p(N);
    Rng rng(2);
    std::map<sim::NodeId, int> hits;
    for (int i = 0; i < 63 * 400; i++)
        hits[p.pick(0, rng)]++;
    EXPECT_EQ(hits.size(), std::size_t(N - 1));
    for (const auto &[d, n] : hits)
        EXPECT_GT(n, 200) << "dest " << d;
}

TEST(Patterns, TransposeMapsCoordinates)
{
    auto p = makePattern("transpose", K);
    Rng rng(3);
    // (x=2, y=5) = node 42 -> (x=5, y=2) = node 21.
    EXPECT_EQ(p->pick(5 * K + 2, rng), sim::NodeId(2 * K + 5));
}

TEST(Patterns, TransposeDiagonalFallsBackToUniform)
{
    auto p = makePattern("transpose", K);
    Rng rng(4);
    sim::NodeId diag = 3 * K + 3;
    for (int i = 0; i < 100; i++)
        EXPECT_NE(p->pick(diag, rng), diag);
}

TEST(Patterns, BitComplement)
{
    auto p = makePattern("bitcomp", K);
    Rng rng(5);
    EXPECT_EQ(p->pick(0, rng), sim::NodeId(63));
    EXPECT_EQ(p->pick(63, rng), sim::NodeId(0));
    EXPECT_EQ(p->pick(21, rng), sim::NodeId(42));
}

TEST(Patterns, TornadoHalfwayInX)
{
    auto p = makePattern("tornado", K);
    Rng rng(6);
    // x -> (x + 3) mod 8 for k=8 (ceil(k/2)-1 = 3), same y.
    EXPECT_EQ(p->pick(0, rng), sim::NodeId(3));
    EXPECT_EQ(p->pick(6, rng), sim::NodeId(1));
    EXPECT_EQ(p->pick(K + 0, rng), sim::NodeId(K + 3));
}

TEST(Patterns, NeighborWraps)
{
    auto p = makePattern("neighbor", K);
    Rng rng(7);
    EXPECT_EQ(p->pick(0, rng), sim::NodeId(1));
    EXPECT_EQ(p->pick(7, rng), sim::NodeId(0));
    EXPECT_EQ(p->pick(2 * K + 7, rng), sim::NodeId(2 * K + 0));
}

TEST(Patterns, HotspotBias)
{
    sim::NodeId hot = 36;
    HotspotPattern p(N, hot, 0.25);
    Rng rng(8);
    int to_hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        if (p.pick(0, rng) == hot)
            to_hot++;
    // 25% direct + ~1/63 of the uniform remainder.
    double expect = 0.25 + 0.75 / 63.0;
    EXPECT_NEAR(to_hot / double(n), expect, 0.02);
}

TEST(Patterns, BitReverseMapsAndCovers)
{
    auto p = makePattern("bitrev", K);
    Rng rng(10);
    // 6-bit reversal on an 8x8: 1 = 000001 -> 100000 = 32.
    EXPECT_EQ(p->pick(1, rng), sim::NodeId(32));
    EXPECT_EQ(p->pick(32, rng), sim::NodeId(1));
    // 11 = 001011 -> 110100 = 52.
    EXPECT_EQ(p->pick(11, rng), sim::NodeId(52));
    // Bit reversal is an involution wherever it moves a node.
    for (sim::NodeId s = 0; s < N; s++) {
        auto d = p->pick(s, rng);
        EXPECT_NE(d, s);
        if (p->pick(d, rng) != s) {
            // Only palindromic sources (uniform fallback) may break
            // the involution.
            auto rev = [&](sim::NodeId v) {
                unsigned r = 0;
                for (int i = 0; i < 6; i++)
                    r |= ((unsigned(v) >> i) & 1u) << (5 - i);
                return sim::NodeId(r);
            };
            EXPECT_TRUE(rev(s) == s || rev(d) == d);
        }
    }
}

TEST(Patterns, BitReversePalindromeFallsBackToUniform)
{
    auto p = makePattern("bitrev", K);
    Rng rng(11);
    // 33 = 100001 is a palindrome: mapped uniformly, never to itself.
    std::map<sim::NodeId, int> hits;
    for (int i = 0; i < 1000; i++)
        hits[p->pick(33, rng)]++;
    EXPECT_EQ(hits.count(33), 0u);
    EXPECT_GT(hits.size(), 40u);
}

TEST(Patterns, ShuffleRotatesBits)
{
    auto p = makePattern("shuffle", K);
    Rng rng(12);
    // 6-bit rotate left: 1 = 000001 -> 000010 = 2.
    EXPECT_EQ(p->pick(1, rng), sim::NodeId(2));
    // 32 = 100000 -> 000001 = 1.
    EXPECT_EQ(p->pick(32, rng), sim::NodeId(1));
    // 44 = 101100 -> 011001 = 25.
    EXPECT_EQ(p->pick(44, rng), sim::NodeId(25));
}

TEST(Patterns, ShuffleFixedPointsFallBackToUniform)
{
    auto p = makePattern("shuffle", K);
    Rng rng(13);
    for (sim::NodeId fixed : {sim::NodeId(0), sim::NodeId(N - 1)}) {
        for (int i = 0; i < 200; i++)
            EXPECT_NE(p->pick(fixed, rng), fixed);
    }
}

namespace {

/**
 * Destination of node i under fixed built-in pattern `name`, written
 * from each pattern's textbook definition rather than from its table
 * builder.
 */
sim::NodeId
definedDest(const std::string &name, const topo::Lattice &lat, int i)
{
    int n = lat.numNodes();
    int bits = 0;
    while ((1 << bits) < n)
        bits++;
    if (name == "transpose") {
        // Node (x, y) = y * side + x goes to (y, x) = x * side + y.
        int side = int(std::lround(std::sqrt(double(n))));
        int x = i % side, y = i / side;
        return x * side + y;
    }
    if (name == "bitcomp")
        return n - 1 - i;
    if (name == "bitrev") {
        int d = 0;
        for (int b = 0; b < bits; b++)
            d = (d << 1) | ((i >> b) & 1);
        return d;
    }
    if (name == "shuffle")
        return i == n - 1 ? i : 2 * i % (n - 1);
    // tornado and neighbor move the hosting router along dimension 0
    // (ceil(k/2) - 1 hops, at least one; or one hop), wrapping, and
    // keep every other coordinate and the local index.
    int c = lat.concentration(), k = lat.radix(0);
    int hops = name == "neighbor" ? 1 : std::max(1, (k + 1) / 2 - 1);
    int r = i / c, x = r % k;
    return (r - x + (x + hops) % k) * c + i % c;
}

} // namespace

TEST(Patterns, EveryFixedBuiltinIsItsDefinitionAsATable)
{
    const topo::Lattice lattices[] = {
        topo::Lattice::mesh2D(8), topo::Lattice::torus2D(4),
        topo::Lattice::cmesh(4, 4), topo::Lattice::kAryNCube(3, 4)};
    int fixed_points = 0;
    for (const auto &lat : lattices) {
        const int n = lat.numNodes();
        for (const char *name : {"transpose", "bitcomp", "tornado",
                                 "neighbor", "bitrev", "shuffle"}) {
            SCOPED_TRACE(std::string(name) + " on " +
                         std::to_string(n) + " nodes, radix " +
                         std::to_string(lat.radix(0)));
            auto p = makePattern(name, PatternEnv{lat, ""});
            const auto *perm =
                dynamic_cast<const PermutationPattern *>(p.get());
            ASSERT_NE(perm, nullptr);
            const auto &dest = perm->table();
            ASSERT_EQ(dest.size(), std::size_t(n));

            std::vector<int> hits(std::size_t(n), 0);
            for (sim::NodeId s = 0; s < n; s++) {
                ASSERT_EQ(dest[std::size_t(s)], definedDest(name, lat, s))
                    << "node " << s;
                hits[std::size_t(dest[std::size_t(s)])]++;

                Rng rng(std::uint64_t(s) + 1);
                Rng untouched = rng;
                if (dest[std::size_t(s)] == s) {
                    fixed_points++;
                    for (int i = 0; i < 20; i++)
                        EXPECT_NE(p->pick(s, rng), s) << "node " << s;
                } else {
                    EXPECT_EQ(p->pick(s, rng), dest[std::size_t(s)]);
                    EXPECT_EQ(rng.next(), untouched.next())
                        << "node " << s << " drew from the RNG";
                }
            }
            EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), n)
                << "not a bijection";
        }
    }
    // Transpose diagonals, bit-reversal palindromes and the shuffle's
    // all-zeros / all-ones nodes: the fallback ran.
    EXPECT_GT(fixed_points, 0);
}

TEST(PatternRegistry, ContainsEveryBuiltin)
{
    auto &reg = PatternRegistry::instance();
    for (const char *name : {"uniform", "transpose", "bitcomp",
                             "tornado", "neighbor", "hotspot",
                             "bitrev", "shuffle", "permfile"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
        EXPECT_FALSE(reg.description(name).empty()) << name;
    }
}

TEST(PatternRegistry, FactoryProducesAllRegisteredPatterns)
{
    for (const auto &name : PatternRegistry::instance().names()) {
        if (name == "permfile")
            continue;   // Needs a file; covered by the PermFile tests.
        auto p = makePattern(name, K);
        ASSERT_NE(p, nullptr) << name;
        Rng rng(9);
        for (int i = 0; i < 50; i++) {
            auto d = p->pick(5, rng);
            EXPECT_GE(d, 0);
            EXPECT_LT(d, N);
        }
    }
}

TEST(PatternRegistry, UnknownNameThrowsListingKnownNames)
{
    try {
        makePattern("no-such-pattern", K);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-pattern"), std::string::npos);
        EXPECT_NE(msg.find("uniform"), std::string::npos);
    }
}

TEST(PatternRegistry, BitcompRejectsNonPow2NodeCount)
{
    EXPECT_THROW(makePattern("bitcomp", 3), std::invalid_argument);
    EXPECT_THROW(makePattern("bitrev", 3), std::invalid_argument);
    EXPECT_THROW(makePattern("shuffle", 3), std::invalid_argument);
}

namespace {

/** A scenario extension: everyone sends to node 0. */
class ToZeroPattern : public TrafficPattern
{
  public:
    sim::NodeId
    pick(sim::NodeId src, Rng &rng) const override
    {
        (void)rng;
        return src == 0 ? sim::NodeId(1) : sim::NodeId(0);
    }
};

} // namespace

TEST(PatternRegistry, OneLineRegistrationMakesPatternReachable)
{
    PatternRegistry::instance().add(
        "tozero",
        [](const PatternEnv &) {
            return std::make_unique<ToZeroPattern>();
        },
        "everyone sends to node 0");

    auto names = PatternRegistry::instance().names();
    EXPECT_NE(std::find(names.begin(), names.end(), "tozero"),
              names.end());
    auto p = makePattern("tozero", K);
    Rng rng(1);
    EXPECT_EQ(p->pick(5, rng), sim::NodeId(0));
}

TEST(Patterns, DeterministicGivenRngSeed)
{
    UniformPattern p(N);
    Rng a(77), b(77);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(p.pick(3, a), p.pick(3, b));
}

// ---------------------------------------------------------------------
// permfile: explicit permutations loaded from disk.
// ---------------------------------------------------------------------

namespace {

std::string
writePermFile(const char *name, const std::string &text)
{
    std::string path = testing::TempDir() + "pdr_perm_" + name + ".txt";
    FILE *f = fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr) << path;
    fwrite(text.data(), 1, text.size(), f);
    fclose(f);
    return path;
}

PatternEnv
meshEnv(int k, const std::string &permfile = "")
{
    return {topo::Lattice::mesh2D(k), permfile};
}

} // namespace

TEST(PermFile, LoadsAPermutation)
{
    // 2x2 mesh: a rotation 0->1->2->3->0, with comments and blanks.
    auto path = writePermFile("rot",
                              "# rotation\n1\n2\n\n3\n0  # wraps\n");
    auto p = makePattern("permfile", meshEnv(2, path));
    Rng rng(1);
    EXPECT_EQ(p->pick(0, rng), sim::NodeId(1));
    EXPECT_EQ(p->pick(1, rng), sim::NodeId(2));
    EXPECT_EQ(p->pick(2, rng), sim::NodeId(3));
    EXPECT_EQ(p->pick(3, rng), sim::NodeId(0));
}

TEST(PermFile, FixedPointsFallBackToUniform)
{
    auto path = writePermFile("fixed", "0\n2\n1\n3\n");
    auto p = makePattern("permfile", meshEnv(2, path));
    Rng rng(2);
    for (int i = 0; i < 200; i++) {
        EXPECT_NE(p->pick(0, rng), sim::NodeId(0));
        EXPECT_NE(p->pick(3, rng), sim::NodeId(3));
    }
    EXPECT_EQ(p->pick(1, rng), sim::NodeId(2));
}

TEST(PermFileDeath, ErrorsNameTheOffendingLine)
{
    struct Case
    {
        const char *name;
        const char *text;
        const char *line;
        const char *detail;  //!< The offending entry or the rule.
    };
    for (const Case &c : {
             Case{"junk", "1\nbanana\n3\n0\n", "line 2", "'banana'"},
             Case{"range", "1\n7\n3\n0\n", "line 2", "'7'"},
             Case{"overflow", "1\n99999999999999999999\n3\n0\n",
                  "line 2", "'99999999999999999999'"},
             Case{"dup", "1\n1\n3\n0\n", "line 2",
                  "already used on line 1"},
             Case{"extra", "1\n2\n3\n0\n2\n", "line 5",
                  "more than 4 entries"},
         }) {
        try {
            makePattern("permfile",
                        meshEnv(2, writePermFile(c.name, c.text)));
            FAIL() << c.name << ": expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            std::string what = e.what();
            EXPECT_NE(what.find(c.line), std::string::npos)
                << c.name << ": " << what;
            EXPECT_NE(what.find(c.detail), std::string::npos)
                << c.name << ": " << what;
        }
    }
}

TEST(PermFileDeath, WrongEntryCountAndMissingFileRejected)
{
    try {
        makePattern("permfile",
                    meshEnv(2, writePermFile("short", "1\n0\n")));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("expected 4 entries"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(makePattern("permfile", meshEnv(2, "/no/such/file")),
                 std::invalid_argument);
    EXPECT_THROW(makePattern("permfile", meshEnv(2, "")),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Concentration: patterns are defined over terminal nodes.
// ---------------------------------------------------------------------

TEST(Patterns, ConcentrationRespectedByGeometricPatterns)
{
    topo::Lattice cm = topo::Lattice::cmesh(4, 4);
    PatternEnv env{cm, ""};
    Rng rng(3);

    // Tornado moves the hosting router, keeping the local index.
    auto tornado = makePattern("tornado", env);
    for (sim::NodeId src = 0; src < cm.numNodes(); src += 5) {
        auto d = tornado->pick(src, rng);
        EXPECT_EQ(cm.localIndexOf(d), cm.localIndexOf(src));
        EXPECT_NE(cm.routerOf(d), cm.routerOf(src));
    }

    // Uniform covers the full terminal-node space, not just routers.
    auto uniform = makePattern("uniform", env);
    std::map<sim::NodeId, int> hits;
    for (int i = 0; i < 20000; i++)
        hits[uniform->pick(0, rng)]++;
    EXPECT_EQ(hits.size(), std::size_t(cm.numNodes() - 1));

    // Transpose permutes the 64-node square of the c=4 cmesh.
    auto transpose = makePattern("transpose", env);
    EXPECT_EQ(transpose->pick(1, rng), sim::NodeId(8));
}
