/**
 * @file
 * Engine-profiler tests: the read-only contract (results bit-identical
 * with profiling on or off, at any worker count), determinism of the
 * tick-weight signal, the telescoping of per-epoch weight deltas, the
 * report, and the NDJSON round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/simulation.hh"
#include "prof/report.hh"

using namespace pdr;

namespace {

api::SimConfig
tinyConfig(double load = 0.4)
{
    api::SimConfig cfg;
    cfg.net.k = 4;
    cfg.net.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.net.router.numVcs = 2;
    cfg.net.router.bufDepth = 4;
    cfg.net.warmup = 500;
    cfg.net.samplePackets = 1000;
    cfg.net.setOfferedFraction(load);
    cfg.maxCycles = 100000;
    return cfg;
}

api::SimConfig
k8Config(const std::string &pattern, double load)
{
    api::SimConfig cfg;
    cfg.net.k = 8;
    cfg.net.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.net.router.numVcs = 2;
    cfg.net.router.bufDepth = 4;
    cfg.net.warmup = 300;
    cfg.net.samplePackets = 1000;
    cfg.net.pattern = pattern;
    cfg.net.setOfferedFraction(load);
    cfg.maxCycles = 30000;
    return cfg;
}

void
expectSameResults(const api::SimResults &a, const api::SimResults &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.sampleReceived, b.sampleReceived);
    EXPECT_EQ(a.sampleSize, b.sampleSize);
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_DOUBLE_EQ(a.acceptedFraction, b.acceptedFraction);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.routers.flitsIn, b.routers.flitsIn);
    EXPECT_EQ(a.routers.flitsOut, b.routers.flitsOut);
    EXPECT_EQ(a.routers.headGrants, b.routers.headGrants);
    EXPECT_EQ(a.routers.vaGrants, b.routers.vaGrants);
    EXPECT_EQ(a.routers.specSaAttempts, b.routers.specSaAttempts);
    EXPECT_EQ(a.routers.specSaWins, b.routers.specSaWins);
    EXPECT_EQ(a.routers.specSaUseful, b.routers.specSaUseful);
    EXPECT_EQ(a.routers.creditStallCycles,
              b.routers.creditStallCycles);
    EXPECT_EQ(a.routers.bufOccupancy, b.routers.bufOccupancy);
}

} // namespace

TEST(Prof, ProfilingIsReadOnly)
{
    // The hard contract: identical SimResults with the profiler on or
    // off, field by field, at 1, 2 and 4 workers.
    api::SimConfig off = tinyConfig();
    auto base = api::runSimulation(off);
    EXPECT_EQ(base.prof, nullptr);

    for (int w : {1, 2, 4}) {
        api::SimConfig on = tinyConfig();
        on.prof.enable = true;
        on.parWorkers = w;
        auto res = api::runSimulation(on);
        expectSameResults(base, res);
        ASSERT_NE(res.prof, nullptr);
        EXPECT_GT(res.prof->epochs.size(), 0u);
    }
}

TEST(Prof, WeightsIdenticalAcrossWorkerCounts)
{
    // The tick-weight signal depends only on the wake-table schedule,
    // so the merged shards -- and every per-epoch delta -- must be
    // byte-identical for any worker count.
    std::shared_ptr<const prof::Capture> caps[3];
    const int workers[] = {1, 2, 4};
    for (int i = 0; i < 3; i++) {
        api::SimConfig cfg = tinyConfig();
        cfg.prof.enable = true;
        cfg.parWorkers = workers[i];
        caps[i] = api::runSimulation(cfg).prof;
        ASSERT_NE(caps[i], nullptr);
    }
    for (int i = 1; i < 3; i++) {
        EXPECT_EQ(caps[0]->cycles, caps[i]->cycles);
        EXPECT_EQ(caps[0]->weights, caps[i]->weights);
        ASSERT_EQ(caps[0]->epochs.size(), caps[i]->epochs.size());
        for (std::size_t e = 0; e < caps[0]->epochs.size(); e++) {
            EXPECT_EQ(caps[0]->epochs[e].cycle,
                      caps[i]->epochs[e].cycle);
            EXPECT_EQ(caps[0]->epochs[e].weights,
                      caps[i]->epochs[e].weights);
        }
    }
}

TEST(Prof, EpochWeightsTelescopeToTotals)
{
    api::SimConfig cfg = tinyConfig();
    cfg.prof.enable = true;
    cfg.telem.interval = 300;
    auto cap = api::runSimulation(cfg).prof;
    ASSERT_NE(cap, nullptr);
    ASSERT_GT(cap->epochs.size(), 1u);
    std::vector<std::uint64_t> sum(cap->weights.size(), 0);
    for (const auto &e : cap->epochs) {
        ASSERT_EQ(e.weights.size(), sum.size());
        for (std::size_t r = 0; r < sum.size(); r++)
            sum[r] += e.weights[r];
    }
    EXPECT_EQ(sum, cap->weights);
    // Somebody actually ticked.
    std::uint64_t total = 0;
    for (auto w : cap->weights)
        total += w;
    EXPECT_GT(total, 0u);
}

TEST(Prof, PhaseTimesCoverEachEpoch)
{
    api::SimConfig cfg = tinyConfig();
    cfg.prof.enable = true;
    cfg.parWorkers = 2;
    auto cap = api::runSimulation(cfg).prof;
    ASSERT_NE(cap, nullptr);
    EXPECT_GE(cap->workers, 1);
    for (const auto &e : cap->epochs) {
        ASSERT_EQ(e.tickUs.size(), std::size_t(cap->workers));
        ASSERT_EQ(e.drainUs.size(), std::size_t(cap->workers));
        ASSERT_EQ(e.barrierUs.size(), std::size_t(cap->workers));
        ASSERT_EQ(e.idleUs.size(), std::size_t(cap->workers));
    }
    // Worker 0 spent some wall time ticking overall (the values are
    // host-clock readings, so only coarse properties are testable).
    std::uint64_t tick0 = 0;
    for (const auto &e : cap->epochs)
        tick0 += e.tickUs[0];
    EXPECT_GT(tick0, 0u);
}

TEST(Prof, HotspotMoreImbalancedThanUniform)
{
    // The acceptance check behind `pdr profile`: under a hotspot
    // pattern the plane-aligned tick-weight split is strictly more
    // imbalanced than under uniform traffic, and the ratio -- being a
    // pure function of the deterministic weights -- is identical at
    // any execution worker count.
    api::SimConfig hot = k8Config("hotspot", 0.85);
    hot.prof.enable = true;
    auto hotCap = api::runSimulation(hot).prof;
    ASSERT_NE(hotCap, nullptr);

    api::SimConfig uni = k8Config("uniform", 0.85);
    uni.prof.enable = true;
    auto uniCap = api::runSimulation(uni).prof;
    ASSERT_NE(uniCap, nullptr);

    const auto lat = hot.net.makeLattice();
    const double hotImb =
        prof::weightImbalance(hotCap->weights, lat, 4);
    const double uniImb =
        prof::weightImbalance(uniCap->weights, lat, 4);
    EXPECT_GT(hotImb, uniImb);
    EXPECT_GT(hotImb, 1.0);

    hot.parWorkers = 2;
    auto hotCap2 = api::runSimulation(hot).prof;
    ASSERT_NE(hotCap2, nullptr);
    EXPECT_EQ(hotCap->weights, hotCap2->weights);
    EXPECT_DOUBLE_EQ(
        hotImb, prof::weightImbalance(hotCap2->weights, lat, 4));
}

TEST(Prof, ReportNamesTheVerdict)
{
    api::SimConfig cfg = k8Config("hotspot", 0.85);
    cfg.prof.enable = true;
    auto res = api::runSimulation(cfg);
    ASSERT_NE(res.prof, nullptr);
    const std::string report =
        prof::buildReport(*res.prof, cfg.net.makeLattice());
    EXPECT_NE(report.find("per-worker phase wall time"),
              std::string::npos);
    EXPECT_NE(report.find("hottest routers"), std::string::npos);
    EXPECT_NE(report.find("weight_imbalance"), std::string::npos);
    EXPECT_NE(report.find("verdict: planes split puts"),
              std::string::npos);
    EXPECT_NE(report.find("weighted split would cut"),
              std::string::npos);
}

TEST(Prof, StreamRoundTripsThroughParser)
{
    // A profiled run with a stream destination writes worker_window /
    // weight_heatmap records even with the telemetry sampler off;
    // parseStream must rebuild the deterministic half of the capture
    // exactly.
    const std::string out = "pdr_test_prof_roundtrip.ndjson";
    api::SimConfig cfg = tinyConfig();
    cfg.prof.enable = true;
    cfg.telem.out = out;    // Note: telem.enable stays false.
    auto res = api::runSimulation(cfg);
    ASSERT_NE(res.prof, nullptr);

    std::ifstream in(out);
    ASSERT_TRUE(bool(in));
    auto parsed = prof::parseStream(in);
    std::remove(out.c_str());

    EXPECT_EQ(parsed.workers, res.prof->workers);
    EXPECT_EQ(parsed.epochs.size(), res.prof->epochs.size());
    EXPECT_EQ(parsed.weights, res.prof->weights);
    for (std::size_t e = 0; e < parsed.epochs.size(); e++) {
        EXPECT_EQ(parsed.epochs[e].cycle, res.prof->epochs[e].cycle);
        EXPECT_EQ(parsed.epochs[e].weights,
                  res.prof->epochs[e].weights);
        EXPECT_EQ(parsed.epochs[e].tickUs, res.prof->epochs[e].tickUs);
    }
}

TEST(Prof, MalformedStreamsAreNamedErrors)
{
    // `pdr profile --from` reads whatever file it is given: every
    // malformed or truncated stream, and a stream read against the
    // wrong lattice, must end in an exception -- never an
    // out-of-bounds read, a wild allocation or a nonsense report.
    const std::string out = "pdr_test_prof_malformed.ndjson";
    api::SimConfig cfg = tinyConfig();
    cfg.prof.enable = true;
    cfg.telem.out = out;
    cfg.telem.interval = 500;
    api::runSimulation(cfg);
    std::string stream;
    {
        std::ifstream in(out);
        ASSERT_TRUE(bool(in));
        std::ostringstream ss;
        ss << in.rdbuf();
        stream = ss.str();
    }
    std::remove(out.c_str());

    auto lattice = [&](int k) {
        auto c = cfg;
        c.net.k = k;
        return c.net.makeLattice();
    };
    auto report = [&](const std::string &text, int k) {
        std::istringstream in(text);
        return prof::buildReport(prof::parseStream(in), lattice(k));
    };
    ASSERT_NO_THROW(report(stream, 4));

    const std::string phases =
        "\"drain_us\": [0], \"barrier_us\": [0], \"idle_us\": [0]}";
    auto ww = [&](const std::string &head) {
        return "{\"type\": \"worker_window\", " + head + phases + "\n";
    };
    const std::string okWw =
        ww("\"cycle\": 5, \"window\": 5, \"workers\": 1, "
           "\"tick_us\": [1], ");
    auto hm = [](const std::string &weights) {
        return "{\"type\": \"weight_heatmap\", \"cycle\": 5, "
               "\"window\": 5, \"weights\": [" + weights + "]}\n";
    };
    const std::string w16 = "1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1";

    struct Case
    {
        std::string what;
        std::string text;
        int k;
    };
    std::vector<Case> cases = {
        {"k=4 stream read as k=8", stream, 8},
        {"k=4 stream read as k=16", stream, 16},
        {"lone unclosed record",
         "{\"type\": \"worker_window\", \"cycle\": 5", 4},
        {"huge worker count",
         ww("\"cycle\": 5, \"window\": 5, \"workers\": 99999999999, "
            "\"tick_us\": [1], "), 4},
        {"zero workers",
         ww("\"cycle\": 5, \"window\": 5, \"workers\": 0, "
            "\"tick_us\": [], "), 4},
        {"phase array longer than workers",
         ww("\"cycle\": 5, \"window\": 5, \"workers\": 1, "
            "\"tick_us\": [1,2], ") + hm(w16), 4},
        {"workers change between lines",
         okWw + ww("\"cycle\": 6, \"window\": 1, \"workers\": 2, "
                   "\"tick_us\": [1,2], "), 4},
        {"trailing garbage in a number",
         ww("\"cycle\": 5x, \"window\": 5, \"workers\": 1, "
            "\"tick_us\": [1], ") + hm(w16), 4},
        {"negative number",
         ww("\"cycle\": -5, \"window\": 5, \"workers\": 1, "
            "\"tick_us\": [1], ") + hm(w16), 4},
        {"overflowing number",
         ww("\"cycle\": 99999999999999999999, \"window\": 5, "
            "\"workers\": 1, \"tick_us\": [1], ") + hm(w16), 4},
        {"missing key",
         ww("\"window\": 5, \"workers\": 1, \"tick_us\": [1], ") +
             hm(w16), 4},
        {"empty array cell", okWw + hm("1,,1"), 4},
        {"unclosed array",
         "{\"type\": \"weight_heatmap\", \"cycle\": 5, "
         "\"weights\": [1,2}\n", 4},
        {"weight arrays of unequal length",
         okWw + hm(w16) + hm("1,1,1,1,1,1,1,1,1,1,1,1,1,1,1"), 4},
        {"worker windows without weights", okWw, 4},
    };

    // The real stream cut inside each of its lines: after the opening
    // brace, halfway, and just before the closing brace.
    for (std::size_t start = 0, n = 0; start < stream.size(); n++) {
        const std::size_t len = stream.find('\n', start) - start;
        for (std::size_t cut : {std::size_t(1), len / 2, len - 1}) {
            cases.push_back({"stream cut in line " + std::to_string(n) +
                                 " at byte " + std::to_string(cut),
                             stream.substr(0, start + cut), 4});
        }
        start += len + 1;
    }
    ASSERT_GT(cases.size(), 20u);

    for (const auto &c : cases)
        EXPECT_THROW(report(c.text, c.k), std::exception) << c.what;
}

TEST(Prof, StreamByteIdenticalHeatmapAcrossWorkers)
{
    // The weight_heatmap lines are simulation output: byte-identical
    // at any worker count (worker_window lines are wall clock and are
    // excluded).
    std::string heatmaps[2];
    const int workers[] = {1, 2};
    for (int i = 0; i < 2; i++) {
        const std::string out =
            std::string("pdr_test_prof_hm") + (i ? "2" : "1") +
            ".ndjson";
        api::SimConfig cfg = tinyConfig();
        cfg.prof.enable = true;
        cfg.parWorkers = workers[i];
        cfg.telem.out = out;
        api::runSimulation(cfg);
        std::ifstream in(out);
        ASSERT_TRUE(bool(in));
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"type\": \"weight_heatmap\"") !=
                std::string::npos)
                heatmaps[i] += line + "\n";
        }
        std::remove(out.c_str());
    }
    EXPECT_FALSE(heatmaps[0].empty());
    EXPECT_EQ(heatmaps[0], heatmaps[1]);
}
