/**
 * @file
 * `pdr` -- the declarative experiment driver.
 *
 *   pdr run      [--file F] [--key=value ...]          one simulation
 *   pdr sweep    [--file F] [--key=value ...] [...]    a full sweep
 *   pdr profile  [--file F] [--key=value ...]          engine profile
 *   pdr describe [--file F] [--key=value ...]          schema / files
 *
 * Experiments are data: an INI-style file (see the experiments/
 * directory) or `--key=value` overrides build an api::Experiment;
 * `pdr sweep`
 * expands it to sweep points, runs them on the parallel sweep engine
 * and emits CSV (default) or JSON via stats::Table.  Bad configs are
 * reported per point (ok/error columns), not fatally.
 *
 * The latency-load figures are run this way:
 * `pdr sweep --file experiments/fig18.exp --csv out.csv` writes the
 * same bytes for any PDR_THREADS (CI diffs it against
 * experiments/golden/).
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/params.hh"
#include "api/simulation.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "exec/progress.hh"
#include "exec/sweep.hh"
#include "net/registry.hh"
#include "par/stepper.hh"
#include "prof/report.hh"
#include "traffic/pattern.hh"

using namespace pdr;

namespace {

int
usage(FILE *out)
{
    std::fprintf(out,
        "usage: pdr <command> [options]\n"
        "\n"
        "commands:\n"
        "  run        run the base configuration once, print results\n"
        "  sweep      expand axes x curves, run all points in "
        "parallel,\n"
        "             emit CSV (default) or JSON\n"
        "  describe   list parameter keys and registries; with "
        "--file,\n"
        "             validate and summarize an experiment\n"
        "  list       print every registered topology, routing "
        "function\n"
        "             and traffic pattern, one per line\n"
        "  profile    run the base configuration with the engine\n"
        "             profiler on (or read a stream via --from) and\n"
        "             print per-worker utilization, hottest routers\n"
        "             and a partition-quality verdict\n"
        "  diff       compare two sweep CSVs cell by cell "
        "(--tolerance\n"
        "             for numeric slack); exits 1 on any mismatch\n"
        "  merge      stitch sweep-shard CSVs (disjoint --slice runs "
        "of one\n"
        "             experiment) into the full table; errors on\n"
        "             overlapping or missing points\n"
        "\n"
        "options:\n"
        "  --file PATH        load an INI-style experiment file\n"
        "  --KEY=VALUE        override any parameter key (net.k, \n"
        "                     router.model, traffic.pattern, "
        "sweep.loads, ...)\n"
        "  --csv PATH         sweep/merge: write CSV here instead of "
        "stdout\n"
        "  --json [PATH]      sweep: emit JSON (to PATH or stdout); \n"
        "                     run: print the result row as JSON\n"
        "  --threads N        sweep worker threads (default: "
        "PDR_THREADS\n"
        "                     or hardware concurrency)\n"
        "  --seed N           base seed for derived per-point seeds\n"
        "  --slice I/N        sweep: run only the I-th of N contiguous "
        "point\n"
        "                     slices; rows keep their full-grid index "
        "and\n"
        "                     seed, so N shard CSVs merge into "
        "exactly\n"
        "                     the unsliced table\n"
        "  --tolerance X      diff: relative numeric tolerance per "
        "cell\n"
        "                     (default 0 = bit-exact text compare)\n"
        "  --telem PATH       run: stream windowed telemetry records "
        "to PATH\n"
        "                     ('-' = stdout); sweep: PATH is a prefix "
        "-- each\n"
        "                     point streams to PATH.<index>.ndjson and "
        "the\n"
        "                     per-point totals land in "
        "PATH.summary.csv\n"
        "                     (telem.* keys tune the interval)\n"
        "  --trace PATH       run: write a Chrome trace-event JSON "
        "(opens in\n"
        "                     Perfetto / chrome://tracing) to PATH\n"
        "  --profile          run: enable the engine profiler "
        "(prof.enable)\n"
        "                     and print the profile report after the\n"
        "                     results\n"
        "  --from PATH        profile: analyze an existing NDJSON "
        "stream\n"
        "                     instead of running the simulation\n"
        "\n"
        "environment: PDR_FAST=1 coarsens the load axis; PDR_PACKETS,\n"
        "PDR_WARMUP, PDR_MAX_CYCLES override the base config.\n"
        "\n"
        "example:\n"
        "  pdr sweep --net.k=4 --router.model=specVC "
        "--router.num_vcs=2 \\\n"
        "            --router.buf_depth=4 --sweep.loads=0.1,0.3,0.5\n");
    return out == stdout ? 0 : 2;
}

struct Options
{
    std::string command;
    std::string file;
    std::string csvPath;
    std::string jsonPath;
    bool json = false;
    int threads = 0;
    std::uint64_t seed = 1;
    double tolerance = 0.0;
    int sliceIndex = 0;
    int sliceCount = 0;     //!< 0 = no --slice given.
    std::string telemPath;  //!< --telem: stream path (sweep: prefix).
    std::string tracePath;  //!< --trace: Chrome trace JSON path.
    bool profile = false;   //!< --profile: engine profiler + report.
    std::string fromPath;   //!< --from: analyze an existing stream.
    /** --key=value overrides, in command-line order. */
    std::vector<std::pair<std::string, std::string>> overrides;
    /** Positional arguments (CSV paths of `pdr diff` / `pdr merge`). */
    std::vector<std::string> positional;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    opt.command = argv[1];
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        // Flags accept both "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline = false;
        auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            has_inline = true;
            arg = arg.substr(0, eq);
        }
        auto want_value = [&](const char *flag) -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc) {
                throw std::invalid_argument(
                    std::string(flag) + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--file") {
            opt.file = want_value("--file");
        } else if (arg == "--csv") {
            opt.csvPath = want_value("--csv");
        } else if (arg == "--json") {
            opt.json = true;
            if (has_inline)
                opt.jsonPath = inline_value;
            else if (i + 1 < argc && argv[i + 1][0] != '-')
                opt.jsonPath = argv[++i];
        } else if (arg == "--threads") {
            opt.threads = int(parseInt("--threads", want_value("--threads"),
                                       0, INT_MAX));
        } else if (arg == "--seed") {
            opt.seed = parseU64("--seed", want_value("--seed"));
        } else if (arg == "--telem") {
            opt.telemPath = want_value("--telem");
        } else if (arg == "--trace") {
            opt.tracePath = want_value("--trace");
        } else if (arg == "--profile") {
            opt.profile = true;
        } else if (arg == "--from") {
            opt.fromPath = want_value("--from");
        } else if (arg == "--tolerance") {
            opt.tolerance = parseDouble("--tolerance",
                                        want_value("--tolerance"));
        } else if (arg == "--slice") {
            std::string v = want_value("--slice");
            auto slash = v.find('/');
            if (slash == std::string::npos) {
                throw std::invalid_argument(
                    "--slice wants I/N with 0 <= I < N, got '" + v +
                    "'");
            }
            opt.sliceCount = int(parseInt("--slice", v.substr(slash + 1),
                                          1, INT_MAX));
            opt.sliceIndex = int(parseInt("--slice", v.substr(0, slash),
                                          0, opt.sliceCount - 1));
        } else if (has_inline && arg.rfind("--", 0) == 0) {
            opt.overrides.push_back({arg.substr(2), inline_value});
        } else if (arg.rfind("--", 0) != 0) {
            opt.positional.push_back(arg);
        } else {
            throw std::invalid_argument("unknown argument '" + arg +
                                        "'");
        }
    }
    return true;
}

api::Experiment
buildExperiment(const Options &opt)
{
    api::Experiment exp;
    if (!opt.file.empty())
        exp = api::Experiment::load(opt.file);
    for (const auto &[k, v] : opt.overrides)
        exp.set(k, v);
    return exp;
}

void
writeTable(const stats::Table &table, bool json,
           const std::string &path)
{
    if (path.empty() || path == "-") {
        if (json)
            table.writeJson(std::cout);
        else
            table.writeCsv(std::cout);
        return;
    }
    std::ofstream out(path);
    if (!out) {
        throw std::invalid_argument("cannot write '" + path + "'");
    }
    if (json)
        table.writeJson(out);
    else
        table.writeCsv(out);
}

int
cmdRun(const Options &opt)
{
    auto exp = buildExperiment(opt);
    exp.applyEnv();
    if (!exp.curves.empty() || !exp.axes.empty()) {
        std::fprintf(stderr,
                     "pdr: warning: 'run' uses the base config only; "
                     "this experiment declares %zu curve(s) and %zu "
                     "axis/axes -- use 'pdr sweep' to run them\n",
                     exp.curves.size(), exp.axes.size());
    }
    if (!opt.telemPath.empty()) {
        exp.base.telem.enable = true;
        exp.base.telem.out = opt.telemPath;
    }
    if (!opt.tracePath.empty())
        exp.base.telem.trace = opt.tracePath;
    if (opt.profile)
        exp.base.prof.enable = true;
    api::params::validate(exp.base);

    auto res = api::runSimulation(exp.base);
    if (opt.json || !opt.csvPath.empty()) {
        exec::SweepResults one;
        one.points.resize(1);
        one.points[0].label = exp.name.empty() ? "run" : exp.name;
        one.points[0].cfg = exp.base;
        one.points[0].res = res;
        one.points[0].ok = true;
        writeTable(one.toTable(), opt.json,
                   opt.json ? opt.jsonPath : opt.csvPath);
        return 0;
    }
    std::printf("offered_fraction   %.4f\n", res.offeredFraction);
    std::printf("accepted_fraction  %.4f\n", res.acceptedFraction);
    std::printf("avg_latency        %.2f cycles\n", res.avgLatency);
    std::printf("p99_latency        %.2f cycles\n", res.p99Latency);
    std::printf("sample             %llu / %llu received\n",
                static_cast<unsigned long long>(res.sampleReceived),
                static_cast<unsigned long long>(res.sampleSize));
    std::printf("drained            %s\n", res.drained ? "true"
                                                       : "false");
    std::printf("saturated          %s\n", res.saturated() ? "true"
                                                           : "false");
    std::printf("cycles             %llu\n",
                static_cast<unsigned long long>(res.cycles));
    if (exp.base.telem.active()) {
        std::printf("telem_windows      %llu\n",
                    static_cast<unsigned long long>(res.telem.windows));
        std::printf("trace_events       %llu\n",
                    static_cast<unsigned long long>(
                        res.telem.traceEvents));
    }
    if (res.prof) {
        std::printf("\n%s",
                    prof::buildReport(*res.prof, exp.base.net.makeLattice())
                        .c_str());
    }
    return 0;
}

/**
 * `pdr profile`: run the base configuration with the engine profiler
 * on -- or rebuild a capture from an existing NDJSON stream (--from)
 * -- and print the offline report: per-worker utilization, per-window
 * imbalance, hottest routers with lattice coordinates, and the
 * partition-quality verdict.  Everything derived from tick weights is
 * deterministic: identical across runs and execution worker counts.
 */
int
cmdProfile(const Options &opt)
{
    auto exp = buildExperiment(opt);
    exp.applyEnv();
    exp.base.prof.enable = true;
    if (!opt.telemPath.empty()) {
        exp.base.telem.enable = true;
        exp.base.telem.out = opt.telemPath;
    }
    if (!opt.tracePath.empty())
        exp.base.telem.trace = opt.tracePath;
    api::params::validate(exp.base);

    prof::Capture cap;
    if (!opt.fromPath.empty()) {
        std::ifstream in(opt.fromPath);
        if (!in) {
            throw std::invalid_argument("cannot read '" +
                                        opt.fromPath + "'");
        }
        cap = prof::parseStream(in);
    } else {
        auto res = api::runSimulation(exp.base);
        if (!res.prof)
            throw std::runtime_error("run produced no profile");
        cap = *res.prof;
    }
    std::fputs(prof::buildReport(cap, exp.base.net.makeLattice()).c_str(),
               stdout);
    return 0;
}

/**
 * Reject a telemetry file that two sweep points would write: points
 * run concurrently, so their records would interleave into one
 * unreadable file.  A point writes telem.trace when it is set, and
 * telem.out when it streams (telem.enable or prof.enable); /dev/null
 * takes any number of writers.  One point writing both keys to one
 * path is telem::Config::validate()'s error.
 */
void
requireOneWriterPerFile(const std::vector<exec::SweepPoint> &points,
                        std::size_t first_index)
{
    std::map<std::string, std::size_t> writer;   // path -> first point
    auto claim = [&](const char *key, const std::string &path,
                     std::size_t i) {
        if (path.empty() || path == "/dev/null")
            return;
        auto [it, fresh] = writer.emplace(path, i);
        if (!fresh && it->second != i) {
            throw std::invalid_argument(csprintf(
                "%s '%s' would be written by sweep points %zu and %zu "
                "at once; give each point its own file (--telem PREFIX "
                "streams point i to PREFIX.i.ndjson)", key, path.c_str(),
                first_index + it->second, first_index + i));
        }
    };
    for (std::size_t i = 0; i < points.size(); i++) {
        const auto &cfg = points[i].cfg;
        claim("telem.trace", cfg.telem.trace, i);
        if (cfg.telem.enable || cfg.prof.enable)
            claim("telem.out", cfg.telem.out, i);
    }
}

int
cmdSweep(const Options &opt)
{
    auto exp = buildExperiment(opt);
    exp.applyEnv();

    if (!opt.tracePath.empty()) {
        throw std::invalid_argument(
            "--trace is per-run output; use 'pdr run' (or a "
            "--telem.trace=PATH override on a single point)");
    }

    auto points = exp.points();
    if (points.empty())
        throw std::invalid_argument("experiment expands to no points");

    // PDR_PAR_WORKERS is read per point when par.workers = 0: check
    // it once, so a malformed value is one named error rather than a
    // failure on every point.
    par::resolveWorkers(0);

    exec::SweepOptions sweep_opts;
    sweep_opts.threads = opt.threads;
    sweep_opts.baseSeed = opt.seed;
    sweep_opts.onPointDone = exec::makeProgressLine();

    // --slice I/N: run one contiguous block of the expanded grid.  The
    // runner numbers and seeds points from firstIndex, so every shard
    // row is byte-identical to the same row of an unsliced run and
    // `pdr merge` reassembles exactly the full table.
    if (opt.sliceCount > 0) {
        const std::size_t total = points.size();
        const auto slice = [&](int i) {
            return total * std::size_t(i) / std::size_t(opt.sliceCount);
        };
        sweep_opts.firstIndex = slice(opt.sliceIndex);
        points = std::vector<exec::SweepPoint>(
            points.begin() + std::ptrdiff_t(sweep_opts.firstIndex),
            points.begin() + std::ptrdiff_t(slice(opt.sliceIndex + 1)));
        if (points.empty()) {
            throw std::invalid_argument(csprintf(
                "slice %d/%d of this %zu-point experiment is empty",
                opt.sliceIndex, opt.sliceCount, total));
        }
    }

    // --telem PREFIX: every point streams into its own file, named by
    // its grid index so sliced shards never collide and a point's
    // stream is byte-identical however the sweep was sharded.
    if (!opt.telemPath.empty()) {
        for (std::size_t i = 0; i < points.size(); i++) {
            auto &t = points[i].cfg.telem;
            t.enable = true;
            t.out = csprintf("%s.%zu.ndjson", opt.telemPath.c_str(),
                             sweep_opts.firstIndex + i);
        }
    }
    requireOneWriterPerFile(points, sweep_opts.firstIndex);

    auto results = exec::SweepRunner(sweep_opts).run(points);

    writeTable(results.toTable(), opt.json,
               opt.json ? opt.jsonPath : opt.csvPath);

    if (!opt.telemPath.empty()) {
        std::string summary_path = opt.telemPath + ".summary.csv";
        std::ofstream f(summary_path);
        if (!f) {
            throw std::invalid_argument("cannot write '" +
                                        summary_path + "'");
        }
        results.telemTable().writeCsv(f);
        std::fprintf(stderr, "telem: %zu per-point stream(s) at "
                     "%s.<index>.ndjson, summary at %s\n",
                     results.points.size(), opt.telemPath.c_str(),
                     summary_path.c_str());
    }

    std::fprintf(stderr, "sweep: %zu points on %d threads in %.1f s\n",
                 results.points.size(), results.threads,
                 results.wallMs / 1000.0);
    for (const auto &p : results.points) {
        if (!p.ok) {
            std::fprintf(stderr, "point '%s' failed: %s\n",
                         p.label.c_str(), p.error.c_str());
        }
    }
    return results.failures() == 0 ? 0 : 1;
}

/** Read a CSV written by Table::writeCsv (quoted cells included). */
stats::Table
loadCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::invalid_argument("cannot read '" + path + "'");
    return stats::Table::readCsv(in, path);
}

/** Parse a full-cell double; false for non-numeric cells. */
bool
parseNumber(const std::string &cell, double &out)
{
    if (cell.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(cell.c_str(), &end);
    return end == cell.c_str() + cell.size();
}

/**
 * Compare two sweep CSVs.  With zero tolerance every cell must match
 * textually (the bit-identity check CI runs against the golden CSV);
 * with a tolerance, numeric cells may differ by `tol` relative to the
 * larger magnitude (floor 1.0, so near-zero cells get an absolute
 * tolerance) and non-numeric cells must still match exactly.
 */
int
cmdDiff(const Options &opt)
{
    if (opt.positional.size() != 2) {
        throw std::invalid_argument(
            "diff needs exactly two CSV paths: pdr diff A.csv B.csv");
    }
    if (opt.tolerance < 0.0)
        throw std::invalid_argument("--tolerance must be >= 0");

    auto a = loadCsv(opt.positional[0]);
    auto b = loadCsv(opt.positional[1]);

    int mismatches = 0;
    constexpr int max_report = 20;
    auto report = [&](const std::string &what) {
        if (mismatches < max_report)
            std::fprintf(stderr, "pdr diff: %s\n", what.c_str());
        mismatches++;
    };

    if (a.header() != b.header()) {
        report("headers differ");
    } else if (a.numRows() != b.numRows()) {
        report(csprintf("row count differs: %zu vs %zu", a.numRows(),
                        b.numRows()));
    } else {
        // readCsv gives every row the header's cell count.
        for (std::size_t r = 0; r < a.numRows(); r++) {
            const auto &ra = a.rows()[r];
            const auto &rb = b.rows()[r];
            for (std::size_t c = 0; c < ra.size(); c++) {
                if (ra[c] == rb[c])
                    continue;
                double va, vb;
                if (opt.tolerance > 0.0 && parseNumber(ra[c], va) &&
                    parseNumber(rb[c], vb)) {
                    double scale = std::max(
                        {1.0, std::fabs(va), std::fabs(vb)});
                    if (std::fabs(va - vb) <= opt.tolerance * scale)
                        continue;
                }
                report(csprintf("row %zu, %s: '%s' vs '%s'", r,
                                a.header()[c].c_str(), ra[c].c_str(),
                                rb[c].c_str()));
            }
        }
    }

    if (mismatches == 0) {
        std::printf("pdr diff: %zu rows match%s\n", a.numRows(),
                    opt.tolerance > 0.0 ? " (within tolerance)" : "");
        return 0;
    }
    if (mismatches > max_report) {
        std::fprintf(stderr, "pdr diff: ... and %d more\n",
                     mismatches - max_report);
    }
    std::fprintf(stderr, "pdr diff: %d mismatch(es) between '%s' and "
                 "'%s'\n", mismatches, opt.positional[0].c_str(),
                 opt.positional[1].c_str());
    return 1;
}

/**
 * `pdr merge`: stitch N sweep-shard CSVs -- disjoint `--slice` runs of
 * one experiment -- back into the full result table.  Rows are keyed
 * by the `index` column (the full-grid point index every slice run
 * preserves); any overlap between shards or gap in the union is an
 * error, so a botched fan-out cannot silently produce a short or
 * double-counted table.  The merged CSV is byte-identical to what one
 * unsliced `pdr sweep` of the same experiment would emit.
 */
int
cmdMerge(const Options &opt)
{
    if (opt.positional.size() < 2) {
        throw std::invalid_argument(
            "merge needs at least two shard CSVs: pdr merge A.csv "
            "B.csv ... [--csv OUT]");
    }

    std::vector<std::string> header;
    std::size_t index_col = 0;
    struct Row
    {
        std::vector<std::string> cells;
        const std::string *file;
    };
    std::map<std::uint64_t, Row> rows;

    for (const auto &path : opt.positional) {
        auto csv = loadCsv(path);
        if (header.empty()) {
            header = csv.header();
            auto it = std::find(header.begin(), header.end(), "index");
            if (it == header.end()) {
                throw std::invalid_argument(
                    "'" + path + "' has no 'index' column (not a "
                    "sweep CSV?)");
            }
            index_col = std::size_t(it - header.begin());
        } else if (csv.header() != header) {
            throw std::invalid_argument(
                "headers differ between '" + opt.positional.front() +
                "' and '" + path + "'");
        }
        for (const auto &cells : csv.rows()) {
            std::uint64_t idx =
                parseU64("'" + path + "' index", cells[index_col]);
            auto [it, inserted] = rows.insert({idx, {cells, &path}});
            if (!inserted) {
                throw std::invalid_argument(csprintf(
                    "overlapping point index %llu (in '%s' and '%s')",
                    static_cast<unsigned long long>(idx),
                    it->second.file->c_str(), path.c_str()));
            }
        }
    }

    if (rows.empty())
        throw std::invalid_argument("no rows to merge");
    std::uint64_t expect = 0;
    for (const auto &[idx, row] : rows) {
        if (idx != expect) {
            throw std::invalid_argument(csprintf(
                "missing point index %llu (shards cover %zu of %llu "
                "points)",
                static_cast<unsigned long long>(expect), rows.size(),
                static_cast<unsigned long long>(
                    rows.rbegin()->first + 1)));
        }
        expect++;
    }

    stats::Table merged(header);
    for (const auto &[idx, row] : rows)
        merged.addRow(row.cells);
    writeTable(merged, false, opt.csvPath);
    std::fprintf(stderr, "merge: %zu rows from %zu shard(s)\n",
                 rows.size(), opt.positional.size());
    return 0;
}

/**
 * `pdr list`: the registry contents in machine-friendly form, one
 * `<kind> <name>` pair per line, so scripts (and users) can discover
 * registry growth without parsing the describe layout.
 */
int
cmdList(const Options &)
{
    for (const auto &n : net::TopologyRegistry::instance().names())
        std::printf("topology %s\n", n.c_str());
    for (const auto &n : net::RoutingRegistry::instance().names())
        std::printf("routing %s\n", n.c_str());
    for (const auto &n : traffic::PatternRegistry::instance().names())
        std::printf("pattern %s\n", n.c_str());
    return 0;
}

int
cmdDescribe(const Options &opt)
{
    if (opt.file.empty() && opt.overrides.empty()) {
        std::printf("parameter keys (defaults shown):\n");
        api::SimConfig defaults;
        for (const auto &p : api::params::schema()) {
            std::printf("  %-28s %-10s %s\n", p.key.c_str(),
                        api::params::get(defaults, p.key).c_str(),
                        p.description.c_str());
        }
        std::printf("  %-28s %-10s %s\n", "sweep.loads", "-",
                    "offered-load axis (fractions of capacity)");
        std::printf("  %-28s %-10s %s\n", "sweep.<key>", "-",
                    "sweep axis over any parameter key");

        auto show = [](const char *what, auto &reg) {
            std::printf("\n%s:\n", what);
            for (const auto &n : reg.names()) {
                std::printf("  %-12s %s\n", n.c_str(),
                            reg.description(n).c_str());
            }
        };
        show("traffic patterns", traffic::PatternRegistry::instance());
        show("topologies", net::TopologyRegistry::instance());
        show("routing functions", net::RoutingRegistry::instance());
        return 0;
    }

    auto exp = buildExperiment(opt);
    exp.validate();
    auto points = exp.points();
    std::printf("name:        %s\n",
                exp.name.empty() ? "(unnamed)" : exp.name.c_str());
    if (!exp.description.empty())
        std::printf("description: %s\n", exp.description.c_str());
    std::printf("curves:      %zu\n", exp.curves.size());
    for (const auto &c : exp.curves)
        std::printf("  [curve %s] (%zu overrides)\n", c.label.c_str(),
                    c.overrides.size());
    std::printf("axes:        %zu\n", exp.axes.size());
    for (const auto &a : exp.axes)
        std::printf("  %s (%zu values)\n", a.key.c_str(),
                    a.values.size());
    std::printf("points:      %zu\n", points.size());
    std::printf("\neffective base config:\n%s",
                api::params::dump(exp.base).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return usage(stdout);

    try {
        Options opt;
        parseArgs(argc, argv, opt);
        if (cmd != "diff" && cmd != "merge" &&
            !opt.positional.empty()) {
            throw std::invalid_argument("unknown argument '" +
                                        opt.positional.front() + "'");
        }
        if (cmd == "run")
            return cmdRun(opt);
        if (cmd == "sweep")
            return cmdSweep(opt);
        if (cmd == "profile")
            return cmdProfile(opt);
        if (cmd == "describe")
            return cmdDescribe(opt);
        if (cmd == "list")
            return cmdList(opt);
        if (cmd == "diff")
            return cmdDiff(opt);
        if (cmd == "merge")
            return cmdMerge(opt);
        std::fprintf(stderr, "pdr: unknown command '%s'\n\n",
                     cmd.c_str());
        return usage(stderr);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pdr: error: %s\n", e.what());
        return 1;
    }
}
