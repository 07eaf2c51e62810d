/**
 * @file
 * Smoke tests for the pdr CLI: drive the real binary (path compiled in
 * as PDR_CLI_PATH) and assert output shape and exit codes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#ifndef PDR_CLI_PATH
#error "PDR_CLI_PATH must point at the pdr binary"
#endif
#ifndef PDR_EXPERIMENTS_DIR
#error "PDR_EXPERIMENTS_DIR must point at the experiments directory"
#endif

namespace {

struct CmdResult
{
    int status = -1;
    std::string out;    //!< stdout + stderr, interleaved.
};

CmdResult
run(const std::string &args, const std::string &env = "")
{
    CmdResult res;
    std::string cmd = (env.empty() ? "" : env + " ") +
                      std::string(PDR_CLI_PATH) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return res;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0)
        res.out.append(buf, n);
    int rc = pclose(pipe);
    res.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return res;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

std::size_t
countFields(const std::string &csv_row)
{
    // Good enough for rows without quoted commas.
    std::size_t n = 1;
    for (char c : csv_row)
        n += c == ',' ? 1 : 0;
    return n;
}

} // namespace

TEST(PdrCli, SweepEmitsOneCsvRowPerPoint)
{
    // 4x4 mesh, 3 loads, 1 implicit curve -> header + 3 rows.
    auto res = run("sweep --net.k=4 --router.model=specVC "
                   "--router.num_vcs=2 --router.buf_depth=4 "
                   "--sim.warmup=200 --sim.sample_packets=300 "
                   "--sweep.loads=0.1,0.2,0.3");
    EXPECT_EQ(res.status, 0) << res.out;

    auto ls = lines(res.out);
    // Drop the stderr summary ("sweep: ..."), interleaved at the end.
    std::vector<std::string> csv;
    for (const auto &l : ls) {
        if (l.rfind("sweep:", 0) != 0)
            csv.push_back(l);
    }
    ASSERT_EQ(csv.size(), 4u) << res.out;
    EXPECT_NE(csv[0].find("label"), std::string::npos);
    EXPECT_NE(csv[0].find("offered_fraction"), std::string::npos);
    EXPECT_NE(csv[0].find("avg_latency"), std::string::npos);
    auto ncols = countFields(csv[0]);
    for (std::size_t i = 1; i < csv.size(); i++)
        EXPECT_EQ(countFields(csv[i]), ncols) << csv[i];
    EXPECT_NE(csv[1].find("0.100"), std::string::npos);
    EXPECT_NE(csv[3].find("0.300"), std::string::npos);
}

TEST(PdrCli, DescribeListsSchemaAndRegistries)
{
    auto res = run("describe");
    EXPECT_EQ(res.status, 0);
    for (const char *needle :
         {"net.k", "router.model", "traffic.pattern", "sweep.loads",
          "uniform", "tornado", "mesh", "torus", "xy", "westfirst",
          "dateline", "kary3cube", "cmesh", "o1turn", "val",
          "permfile"}) {
        EXPECT_NE(res.out.find(needle), std::string::npos) << needle;
    }
}

TEST(PdrCli, ListPrintsEveryRegistryEntryOnePerLine)
{
    auto res = run("list");
    EXPECT_EQ(res.status, 0) << res.out;
    for (const char *line :
         {"topology mesh", "topology torus", "topology kary3cube",
          "topology cmesh", "topology cmesh2", "routing dor",
          "routing xy", "routing dateline", "routing o1turn",
          "routing val", "routing westfirst", "pattern uniform",
          "pattern permfile", "pattern transpose"}) {
        EXPECT_NE(res.out.find(std::string(line) + "\n"),
                  std::string::npos)
            << line;
    }
    // Strictly one `<kind> <name>` pair per line.
    for (const auto &l : lines(res.out)) {
        if (l.empty())
            continue;
        EXPECT_EQ(countFields(l), 1u) << l;   // No commas...
        EXPECT_EQ(std::count(l.begin(), l.end(), ' '), 1) << l;
    }
}

TEST(PdrCli, DescribeValidatesShippedExperiments)
{
    for (const char *exp :
         {"fig13.exp", "fig14.exp", "fig15.exp", "fig16.exp",
          "fig17.exp", "fig18.exp", "kary3cube.exp", "bursty.exp",
          "patterns.exp", "ablation.exp", "chien.exp"}) {
        auto res = run(std::string("describe --file ") +
                       PDR_EXPERIMENTS_DIR + "/" + exp);
        EXPECT_EQ(res.status, 0) << exp << ": " << res.out;
        EXPECT_NE(res.out.find("points:"), std::string::npos) << exp;
    }
}

TEST(PdrCli, SweepRunsOnAKAry3Cube)
{
    auto res = run("sweep --net.k=3 --net.topology=kary3cube "
                   "--router.model=specVC --router.num_ports=0 "
                   "--router.num_vcs=2 --router.buf_depth=4 "
                   "--sim.warmup=200 --sim.sample_packets=200 "
                   "--sweep.loads=0.1");
    EXPECT_EQ(res.status, 0) << res.out;
    EXPECT_NE(res.out.find("0.100"), std::string::npos) << res.out;
}

TEST(PdrCli, FlagsAcceptEqualsSyntax)
{
    auto res = run(std::string("describe --file=") +
                   PDR_EXPERIMENTS_DIR + "/fig18.exp");
    EXPECT_EQ(res.status, 0) << res.out;
    EXPECT_NE(res.out.find("fig18"), std::string::npos);
}

TEST(PdrCli, NanInjectionRateRejected)
{
    auto res = run("run --traffic.injection_rate=nan");
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("traffic.injection_rate"),
              std::string::npos)
        << res.out;
}

TEST(PdrCli, UnknownKeyFailsNamingIt)
{
    auto res = run("run --no.such.key=1");
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("no.such.key"), std::string::npos)
        << res.out;
}

TEST(PdrCli, MalformedNumbersFailNamingTheirSource)
{
    // Flags and PDR_* counts parse whole or fail: no silent prefix
    // (--seed=12abc as 12), zero (--seed=abc) or default pool.
    struct Case
    {
        const char *args;
        const char *env;
        const char *name;
    };
    for (const Case &c :
         {Case{"run --seed=abc", "", "--seed"},
          Case{"run --seed=12abc", "", "--seed"},
          Case{"sweep --threads=abc", "", "--threads"},
          Case{"sweep --threads=-3", "", "--threads"},
          Case{"diff --tolerance=abc a.csv b.csv", "", "--tolerance"},
          Case{"sweep --slice=0/2x", "", "--slice"},
          Case{"run", "PDR_PACKETS=300x", "PDR_PACKETS"},
          Case{"run", "PDR_WARMUP=abc", "PDR_WARMUP"},
          Case{"run", "PDR_MAX_CYCLES=-1", "PDR_MAX_CYCLES"},
          Case{"sweep --net.k=4 --sweep.loads=0.1", "PDR_THREADS=abc",
               "PDR_THREADS"},
          Case{"sweep --net.k=4 --sweep.loads=0.1", "PDR_PAR_WORKERS=2x",
               "PDR_PAR_WORKERS"}}) {
        auto res = run(c.args, c.env);
        EXPECT_EQ(res.status, 1) << c.env << " " << c.args;
        EXPECT_NE(res.out.find("pdr: error:"), std::string::npos)
            << res.out;
        EXPECT_NE(res.out.find(c.name), std::string::npos) << res.out;
    }
}

TEST(PdrCli, RunPrintsResultFields)
{
    auto res = run("run --net.k=4 --router.model=specVC "
                   "--router.num_vcs=2 --router.buf_depth=4 "
                   "--sim.warmup=200 --sim.sample_packets=300 "
                   "--traffic.offered_fraction=0.2");
    EXPECT_EQ(res.status, 0) << res.out;
    EXPECT_NE(res.out.find("avg_latency"), std::string::npos);
    EXPECT_NE(res.out.find("drained"), std::string::npos);
}

namespace {

/** Write `text` to a fresh temp file; returns the path. */
std::string
writeTemp(const char *name, const std::string &text)
{
    std::string path =
        testing::TempDir() + "pdr_cli_" + name + ".csv";
    FILE *f = fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr) << path;
    fwrite(text.data(), 1, text.size(), f);
    fclose(f);
    return path;
}

const char *kCsvA =
    "index,label,avg_latency,drained\n"
    "0,p@0.1,30.25,true\n"
    "1,p@0.2,34.5,true\n";

} // namespace

TEST(PdrCliDiff, IdenticalFilesMatch)
{
    auto a = writeTemp("ident_a", kCsvA);
    auto b = writeTemp("ident_b", kCsvA);
    auto res = run("diff " + a + " " + b);
    EXPECT_EQ(res.status, 0) << res.out;
    EXPECT_NE(res.out.find("2 rows match"), std::string::npos)
        << res.out;
}

TEST(PdrCliDiff, NumericDriftFailsExactButPassesWithTolerance)
{
    auto a = writeTemp("drift_a", kCsvA);
    auto b = writeTemp("drift_b",
                       "index,label,avg_latency,drained\n"
                       "0,p@0.1,30.26,true\n"
                       "1,p@0.2,34.5,true\n");
    auto exact = run("diff " + a + " " + b);
    EXPECT_EQ(exact.status, 1) << exact.out;
    EXPECT_NE(exact.out.find("avg_latency"), std::string::npos)
        << exact.out;

    auto loose = run("diff --tolerance 0.01 " + a + " " + b);
    EXPECT_EQ(loose.status, 0) << loose.out;
}

TEST(PdrCliDiff, ToleranceDoesNotExcuseTextMismatch)
{
    auto a = writeTemp("text_a", kCsvA);
    auto b = writeTemp("text_b",
                       "index,label,avg_latency,drained\n"
                       "0,p@0.1,30.25,true\n"
                       "1,p@0.2,34.5,false\n");
    auto res = run("diff --tolerance 0.5 " + a + " " + b);
    EXPECT_EQ(res.status, 1) << res.out;
    EXPECT_NE(res.out.find("drained"), std::string::npos) << res.out;
}

TEST(PdrCliDiff, RowCountMismatchFails)
{
    auto a = writeTemp("rows_a", kCsvA);
    auto b = writeTemp("rows_b",
                       "index,label,avg_latency,drained\n"
                       "0,p@0.1,30.25,true\n");
    auto res = run("diff " + a + " " + b);
    EXPECT_EQ(res.status, 1) << res.out;
    EXPECT_NE(res.out.find("row count"), std::string::npos) << res.out;
}

TEST(PdrCliDiff, QuotedLabelsKeepColumnsAligned)
{
    // Sweep labels with a comma are written quoted; the mismatch must
    // be reported under its own column, not one to the left.
    auto a = writeTemp("quoted_a",
                       "index,label,accepted_fraction,avg_latency\n"
                       "0,\"specVC, credit prop 4\",0.0625,31.5\n");
    auto b = writeTemp("quoted_b",
                       "index,label,accepted_fraction,avg_latency\n"
                       "0,\"specVC, credit prop 4\",0.0626,31.5\n");
    auto res = run("diff " + a + " " + b);
    EXPECT_EQ(res.status, 1) << res.out;
    EXPECT_NE(res.out.find("row 0, accepted_fraction: '0.0625' vs "
                           "'0.0626'"),
              std::string::npos)
        << res.out;
    EXPECT_EQ(res.out.find("avg_latency"), std::string::npos)
        << res.out;
}

TEST(PdrCliDiff, MalformedCsvNamesFileAndLine)
{
    auto a = writeTemp("unterminated_a", kCsvA);
    auto b = writeTemp("unterminated_b",
                       "index,label,avg_latency,drained\n"
                       "0,\"p@0.1,30.25,true\n");
    auto res = run("diff " + a + " " + b);
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("line 2: unterminated quoted cell"),
              std::string::npos)
        << res.out;
}

TEST(PdrCliDiff, MissingFileReportsError)
{
    auto a = writeTemp("missing_a", kCsvA);
    auto res = run("diff " + a + " /no/such/file.csv");
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("cannot read"), std::string::npos)
        << res.out;
}

TEST(PdrCliDiff, NeedsExactlyTwoPaths)
{
    auto res = run("diff only_one.csv");
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("two CSV paths"), std::string::npos)
        << res.out;
}

namespace {

/** A tiny sweep everyone below shares: 4x4 mesh, 4 points. */
const char *kTinySweep =
    "sweep --net.k=4 --router.model=specVC --router.num_vcs=2 "
    "--router.buf_depth=4 --sim.warmup=200 --sim.sample_packets=300 "
    "--sweep.loads=0.1,0.2,0.3,0.4";

/** The CSV portion of a sweep's output (stderr summary and warn
 *  diagnostics dropped). */
std::string
csvOf(const CmdResult &res)
{
    std::string out;
    for (const auto &l : lines(res.out)) {
        if (l.rfind("sweep:", 0) != 0 && l.rfind("merge:", 0) != 0 &&
            l.rfind("warn:", 0) != 0)
            out += l + "\n";
    }
    return out;
}

} // namespace

TEST(PdrCliPartition, WorkerCountNeverChangesTheCsv)
{
    // The determinism matrix: par.workers x PDR_THREADS must all emit
    // byte-identical CSV (the partitioned engine's contract).
    auto base = run(kTinySweep, "PDR_THREADS=1");
    ASSERT_EQ(base.status, 0) << base.out;
    std::string golden = csvOf(base);
    ASSERT_NE(golden.find("0.400"), std::string::npos);

    for (const char *extra :
         {" --par.workers=2", " --par.workers=4",
          " --par.workers=4 --par.scheme=weighted"}) {
        for (const char *env : {"PDR_THREADS=1", "PDR_THREADS=4"}) {
            auto res = run(std::string(kTinySweep) + extra, env);
            ASSERT_EQ(res.status, 0) << extra << ": " << res.out;
            EXPECT_EQ(csvOf(res), golden) << extra << " " << env;
        }
    }
}

TEST(PdrCliPartition, BadSchemeIsRejectedNamingTheKey)
{
    auto res = run("run --par.scheme=hilbert");
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("par.scheme"), std::string::npos)
        << res.out;
}

TEST(PdrCliMerge, SlicesReassembleTheFullTable)
{
    std::string dir = testing::TempDir();
    auto full = run(std::string(kTinySweep) + " --csv " + dir +
                    "merge_full.csv");
    ASSERT_EQ(full.status, 0) << full.out;
    for (int i = 0; i < 2; i++) {
        auto shard = run(std::string(kTinySweep) +
                         " --slice " + std::to_string(i) + "/2" +
                         " --csv " + dir + "merge_s" +
                         std::to_string(i) + ".csv");
        ASSERT_EQ(shard.status, 0) << shard.out;
    }
    auto merged = run("merge " + dir + "merge_s0.csv " + dir +
                      "merge_s1.csv --csv " + dir + "merge_out.csv");
    ASSERT_EQ(merged.status, 0) << merged.out;
    EXPECT_NE(merged.out.find("4 rows from 2 shard(s)"),
              std::string::npos)
        << merged.out;

    auto diffed = run("diff " + dir + "merge_full.csv " + dir +
                      "merge_out.csv");
    EXPECT_EQ(diffed.status, 0) << diffed.out;
}

TEST(PdrCliMerge, OverlappingShardsAreRejected)
{
    auto a = writeTemp("merge_ov_a",
                       "index,label,avg_latency,drained\n"
                       "0,p@0.1,30.25,true\n"
                       "1,p@0.2,34.5,true\n");
    auto b = writeTemp("merge_ov_b",
                       "index,label,avg_latency,drained\n"
                       "1,p@0.2,34.5,true\n"
                       "2,p@0.3,39.0,true\n");
    auto res = run("merge " + a + " " + b);
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("overlapping point index 1"),
              std::string::npos)
        << res.out;
}

TEST(PdrCliMerge, MissingPointsAreRejected)
{
    // Shards starting at index 2 leave a gap at the front.
    auto head = writeTemp("merge_head",
                          "index,label,avg_latency,drained\n"
                          "2,p@0.3,30.25,true\n"
                          "3,p@0.4,34.5,true\n");
    auto tail = writeTemp("merge_tail",
                          "index,label,avg_latency,drained\n"
                          "5,p@0.6,39.1,true\n");
    auto miss = run("merge " + head + " " + tail);
    EXPECT_NE(miss.status, 0);
    EXPECT_NE(miss.out.find("missing point index 0"),
              std::string::npos)
        << miss.out;
}

TEST(PdrCliMerge, HeaderMismatchIsRejected)
{
    auto a = writeTemp("merge_ha",
                       "index,label,avg_latency\n0,p,1.0\n");
    auto b = writeTemp("merge_hb",
                       "index,label,p99_latency\n1,q,2.0\n");
    auto res = run("merge " + a + " " + b);
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("headers differ"), std::string::npos)
        << res.out;
}

TEST(PdrCliMerge, NeedsAnIndexColumn)
{
    auto a = writeTemp("merge_noidx", "label,avg_latency\np,1.0\n");
    auto res = run("merge " + a + " " + a);
    EXPECT_NE(res.status, 0);
    EXPECT_NE(res.out.find("no 'index' column"), std::string::npos)
        << res.out;
}

TEST(PdrCliSlice, BadSliceSyntaxIsRejected)
{
    for (const char *slice :
         {"2/2", "x", "0/2x", "0/", "/2", "-1/2", "0/0"}) {
        auto res = run(std::string(kTinySweep) + " --slice " + slice);
        EXPECT_NE(res.status, 0) << slice;
        EXPECT_NE(res.out.find("--slice"), std::string::npos)
            << slice << ": " << res.out;
    }
}

// ---------------------------------------------------------------------
// Every telemetry output file has one writer.
// ---------------------------------------------------------------------

TEST(PdrCliTelem, SweepRejectsATraceTwoPointsWouldWrite)
{
    std::string trace = testing::TempDir() + "pdr_cli_shared_trace.json";
    auto res = run(std::string(kTinySweep) + " --telem.trace=" + trace);
    EXPECT_EQ(res.status, 1) << res.out;
    EXPECT_NE(res.out.find("telem.trace '" + trace + "'"),
              std::string::npos)
        << res.out;
    EXPECT_NE(res.out.find("points 0 and 1"), std::string::npos)
        << res.out;
    EXPECT_NE(res.out.find("--telem PREFIX"), std::string::npos)
        << res.out;

    // A slice names its points by grid index.
    auto sliced = run(std::string(kTinySweep) + " --slice 1/2" +
                      " --telem.trace=" + trace);
    EXPECT_EQ(sliced.status, 1) << sliced.out;
    EXPECT_NE(sliced.out.find("points 2 and 3"), std::string::npos)
        << sliced.out;
}

TEST(PdrCliTelem, SweepRejectsAStreamTwoPointsWouldWrite)
{
    std::string out = testing::TempDir() + "pdr_cli_shared.ndjson";
    auto res = run(std::string(kTinySweep) +
                   " --telem.enable=true --telem.out=" + out);
    EXPECT_EQ(res.status, 1) << res.out;
    EXPECT_NE(res.out.find("telem.out '" + out + "'"), std::string::npos)
        << res.out;

    // The profiler streams too.
    auto prof = run(std::string(kTinySweep) +
                    " --prof.enable=true --telem.out=" + out);
    EXPECT_EQ(prof.status, 1) << prof.out;
    EXPECT_NE(prof.out.find("telem.out"), std::string::npos) << prof.out;
}

TEST(PdrCliTelem, SweepAllowsOneWriterPerFile)
{
    // /dev/null takes every point's stream.
    auto null = run(std::string(kTinySweep) +
                    " --telem.enable=true --telem.out=/dev/null");
    EXPECT_EQ(null.status, 0) << null.out;

    // --telem PREFIX gives each point a stream of its own.
    std::string prefix = testing::TempDir() + "pdr_cli_prefix";
    auto each = run(std::string(kTinySweep) + " --telem " + prefix +
                    " --csv " + prefix + ".csv");
    EXPECT_EQ(each.status, 0) << each.out;

    // One point may write a trace.
    auto one = run(std::string(kTinySweep) + " --slice 3/4" +
                   " --telem.trace=" + prefix + ".trace.json");
    EXPECT_EQ(one.status, 0) << one.out;
}

TEST(PdrCliTelem, RunRejectsStreamAndTraceInOneFile)
{
    std::string f = testing::TempDir() + "pdr_cli_both.out";
    auto res = run("run --net.k=4 --sim.warmup=200 "
                   "--sim.sample_packets=300 --telem=" + f +
                   " --trace=" + f);
    EXPECT_EQ(res.status, 1) << res.out;
    EXPECT_NE(res.out.find("telem.out and telem.trace"),
              std::string::npos)
        << res.out;
}
