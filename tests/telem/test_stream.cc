/** @file Tests for the windowed streaming sampler and its algebra. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/simulation.hh"
#include "stats/latency.hh"

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

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(bool(f)) << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::string
tmpPath(const char *tag)
{
    return std::string("pdr_test_telem_") + tag + ".ndjson";
}

/** Pull every `"key": <integer>` occurrence out of NDJSON lines whose
 *  "type" field equals `type`. */
std::vector<unsigned long long>
extractField(const std::string &text, const std::string &type,
             const std::string &key)
{
    std::vector<unsigned long long> out;
    std::istringstream lines(text);
    std::string line;
    const std::string type_tag = "\"type\": \"" + type + "\"";
    const std::string key_tag = "\"" + key + "\": ";
    while (std::getline(lines, line)) {
        if (line.find(type_tag) == std::string::npos)
            continue;
        auto pos = line.find(key_tag);
        EXPECT_NE(pos, std::string::npos) << line;
        if (pos == std::string::npos)
            continue;
        out.push_back(std::stoull(line.substr(pos + key_tag.size())));
    }
    return out;
}

} // namespace

TEST(LatencyDelta, WindowsTelescopeToTotals)
{
    stats::LatencyStats total;
    stats::LatencyStats windows_sum;
    stats::LatencyStats prev;
    // Three "windows" of recordings, snapshotting between them; the
    // deltas must merge back into exactly the final accumulator.
    const double samples[] = {3, 7, 7, 12, 9000, 4, 4, 4, 250, 1};
    int i = 0;
    for (int w = 0; w < 3; w++) {
        for (int j = 0; j <= w * 2; j++, i++) {
            double v = samples[i % 10] + i;
            total.record(v, true);
            total.record(v, false);     // Unmeasured traffic too.
        }
        auto d = total.deltaSince(prev);
        windows_sum += d;
        prev = total;
    }
    EXPECT_EQ(windows_sum.count(), total.count());
    EXPECT_EQ(windows_sum.unmeasuredCount(), total.unmeasuredCount());
    EXPECT_DOUBLE_EQ(windows_sum.mean(), total.mean());
    EXPECT_DOUBLE_EQ(windows_sum.percentile(50.0),
                     total.percentile(50.0));
    EXPECT_DOUBLE_EQ(windows_sum.percentile(99.0),
                     total.percentile(99.0));
}

TEST(LatencyDelta, SingleWindowIsExact)
{
    stats::LatencyStats acc;
    acc.record(10.0, true);
    acc.record(20.0, true);
    stats::LatencyStats prev = acc;
    acc.record(5.0, true);
    acc.record(4100.0, true);   // Overflow bin.
    auto d = acc.deltaSince(prev);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.min(), 5.0);
    // Overflow deltas report the bin limit as max; just require the
    // max to be at least the largest binned sample.
    EXPECT_GE(d.max(), 5.0);
}

TEST(Stream, TelemetryIsReadOnly)
{
    // The hard contract: identical SimResults with telemetry on or
    // off, field by field, including every router counter.
    api::SimConfig off = tinyConfig();
    api::SimConfig on = tinyConfig();
    on.telem.enable = true;
    on.telem.interval = 300;
    on.telem.out = "";      // Sample (and discard) every window.

    auto a = api::runSimulation(off);
    auto b = api::runSimulation(on);

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
    EXPECT_EQ(a.routers.creditStallCycles, b.routers.creditStallCycles);
    EXPECT_EQ(a.routers.bufOccupancy, b.routers.bufOccupancy);
    // And the telemetry side actually ran.
    EXPECT_EQ(a.telem.windows, 0u);
    EXPECT_GT(b.telem.windows, 0u);
}

TEST(Stream, NdjsonByteIdenticalAcrossWorkers)
{
    // The emitted stream is simulation output: it must be
    // byte-identical for any worker count.
    std::string out1 = tmpPath("w1");
    std::string out2 = tmpPath("w2");

    api::SimConfig cfg = tinyConfig();
    cfg.telem.enable = true;
    cfg.telem.interval = 250;

    cfg.parWorkers = 1;
    cfg.telem.out = out1;
    auto r1 = api::runSimulation(cfg);

    cfg.parWorkers = 2;
    cfg.telem.out = out2;
    auto r2 = api::runSimulation(cfg);

    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.telem.windows, r2.telem.windows);
    std::string t1 = slurp(out1);
    std::string t2 = slurp(out2);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2);
    std::remove(out1.c_str());
    std::remove(out2.c_str());
}

TEST(Stream, WindowFlitsTelescopeToSummary)
{
    std::string out = tmpPath("sum");
    api::SimConfig cfg = tinyConfig();
    cfg.telem.enable = true;
    cfg.telem.interval = 200;
    cfg.telem.out = out;

    auto res = api::runSimulation(cfg);
    std::string text = slurp(out);
    std::remove(out.c_str());

    auto window_flits = extractField(text, "window", "flits");
    auto summary_flits = extractField(text, "summary", "flits");
    auto summary_windows = extractField(text, "summary", "windows");
    ASSERT_EQ(summary_flits.size(), 1u);
    ASSERT_EQ(summary_windows.size(), 1u);
    EXPECT_EQ(window_flits.size(), std::size_t(summary_windows[0]));
    EXPECT_EQ(res.telem.windows, summary_windows[0]);
    EXPECT_EQ(res.telem.flits, summary_flits[0]);

    // Sum of windowed deltas == end-of-run total: the stream's merge
    // algebra over the delivered-flit counter.
    unsigned long long sum = 0;
    for (auto f : window_flits)
        sum += f;
    EXPECT_EQ(sum, summary_flits[0]);

    // Per-router heatmap rows: one per router of the 4x4 mesh, and
    // their flits_out sums to the routers' aggregate.
    auto router_rows = extractField(text, "router", "id");
    EXPECT_EQ(router_rows.size(), 16u);
    auto router_flits = extractField(text, "router", "flits_out");
    unsigned long long rsum = 0;
    for (auto f : router_flits)
        rsum += f;
    EXPECT_EQ(rsum, res.routers.flitsOut);
}

TEST(Stream, ConfigValidates)
{
    telem::Config c;
    c.enable = true;
    EXPECT_NO_THROW(c.validate());
    c.interval = 0;
    EXPECT_THROW(c.validate(), std::exception);
}
