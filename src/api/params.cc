#include "api/params.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "common/parse.hh"
#include "net/registry.hh"
#include "par/partition.hh"
#include "traffic/pattern.hh"

namespace pdr::api {

namespace {

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

namespace params {

namespace {

// ---------------------------------------------------------------------
// Value formatting (parsing is common/parse.hh).  Doubles use
// shortest-round-trip formatting where the library provides it, so
// dump -> parse is bit-exact.
// ---------------------------------------------------------------------

std::string
formatDouble(double v)
{
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
#else
    return csprintf("%.17g", v);
#endif
}

// ---------------------------------------------------------------------
// Schema: one entry per key binding a getter and a setter.
// ---------------------------------------------------------------------

struct ParamDef
{
    const char *key;
    const char *desc;
    std::function<std::string(const SimConfig &)> get;
    std::function<void(SimConfig &, const std::string &)> set;
    /** Derived keys (aliases) are settable but excluded from dump. */
    bool derived = false;
};

const std::vector<ParamDef> &
defs()
{
    static const std::vector<ParamDef> table = {
        {"net.k", "network radix: k x k nodes (>= 2)",
         [](const SimConfig &c) { return std::to_string(c.net.k); },
         [](SimConfig &c, const std::string &v) {
             c.net.k = int(parseInt("net.k", v, 2, 4096));
         }},
        {"net.topology",
         "topology registry name (pdr describe lists them)",
         [](const SimConfig &c) { return c.net.topology; },
         [](SimConfig &c, const std::string &v) {
             if (!net::TopologyRegistry::instance().contains(v))
                 net::TopologyRegistry::instance().at(v);  // Throws.
             c.net.topology = v;
         }},
        {"net.routing",
         "routing registry name, or 'auto' for the topology default",
         [](const SimConfig &c) { return c.net.routing; },
         [](SimConfig &c, const std::string &v) {
             if (v != "auto" &&
                 !net::RoutingRegistry::instance().contains(v))
                 net::RoutingRegistry::instance().at(v);  // Throws.
             c.net.routing = v;
         }},
        {"net.link_latency", "flit propagation latency in cycles (>= 1)",
         [](const SimConfig &c) {
             return std::to_string(c.net.linkLatency);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.linkLatency =
                 sim::Cycle(parseU64("net.link_latency", v, 1));
         }},
        {"net.credit_latency",
         "credit propagation latency in cycles (>= 1)",
         [](const SimConfig &c) {
             return std::to_string(c.net.creditLatency);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.creditLatency =
                 sim::Cycle(parseU64("net.credit_latency", v, 1));
         }},
        {"traffic.pattern",
         "traffic pattern registry name (pdr describe lists them)",
         [](const SimConfig &c) { return c.net.pattern; },
         [](SimConfig &c, const std::string &v) {
             if (!traffic::PatternRegistry::instance().contains(v))
                 traffic::PatternRegistry::instance().at(v);  // Throws.
             c.net.pattern = v;
         }},
        {"traffic.permfile",
         "permutation file for traffic.pattern=permfile (one "
         "destination node index per line)",
         [](const SimConfig &c) { return c.net.permfile; },
         [](SimConfig &c, const std::string &v) {
             c.net.permfile = v;
         }},
        {"traffic.injection_rate",
         "offered load in flits/node/cycle, in [0, 1]",
         [](const SimConfig &c) {
             return formatDouble(c.net.injectionRate);
         },
         [](SimConfig &c, const std::string &v) {
             double r = parseDouble("traffic.injection_rate", v);
             if (r < 0.0 || r > 1.0)
                 badValue("traffic.injection_rate", v,
                          "a rate in [0, 1]");
             c.net.injectionRate = r;
         }},
        {"traffic.offered_fraction",
         "offered load as a fraction of uniform capacity (alias: "
         "sets traffic.injection_rate via the topology's capacity)",
         [](const SimConfig &c) {
             return formatDouble(c.net.offeredFraction());
         },
         [](SimConfig &c, const std::string &v) {
             double f = parseDouble("traffic.offered_fraction", v);
             if (f < 0.0)
                 badValue("traffic.offered_fraction", v,
                          "a non-negative fraction");
             c.net.setOfferedFraction(f);
         },
         /*derived=*/true},
        {"traffic.burst_on",
         "MMPP bursty arrivals: mean burst (ON-state) length in "
         "cycles, >= 1; 0 = steady Bernoulli arrivals",
         [](const SimConfig &c) {
             return formatDouble(c.net.burstOn);
         },
         [](SimConfig &c, const std::string &v) {
             double b = parseDouble("traffic.burst_on", v);
             if (b < 0.0)
                 badValue("traffic.burst_on", v,
                          "a non-negative cycle count");
             c.net.burstOn = b;
         }},
        {"traffic.burst_off",
         "MMPP bursty arrivals: mean gap (OFF-state) length in "
         "cycles, >= 1; 0 = steady Bernoulli arrivals",
         [](const SimConfig &c) {
             return formatDouble(c.net.burstOff);
         },
         [](SimConfig &c, const std::string &v) {
             double b = parseDouble("traffic.burst_off", v);
             if (b < 0.0)
                 badValue("traffic.burst_off", v,
                          "a non-negative cycle count");
             c.net.burstOff = b;
         }},
        {"traffic.packet_length", "flits per packet (1..256)",
         [](const SimConfig &c) {
             return std::to_string(c.net.packetLength);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.packetLength =
                 int(parseInt("traffic.packet_length", v, 1,
                              sim::MaxPacketLength));
         }},
        {"router.model", "router microarchitecture: WH, VC or specVC",
         [](const SimConfig &c) {
             return std::string(router::toString(c.net.router.model));
         },
         [](SimConfig &c, const std::string &v) {
             c.net.router.model = router::routerModelFromString(v);
         }},
        {"router.single_cycle",
         "unit-latency idealization (Section 5.2)",
         [](const SimConfig &c) {
             return std::string(c.net.router.singleCycle ? "true"
                                                         : "false");
         },
         [](SimConfig &c, const std::string &v) {
             c.net.router.singleCycle =
                 parseBool("router.single_cycle", v);
         }},
        {"router.num_ports",
         "physical ports per router (0 = derive from the topology; "
         "2D mesh: 5)",
         [](const SimConfig &c) {
             return std::to_string(c.net.router.numPorts);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.router.numPorts =
                 int(parseInt("router.num_ports", v, 0, 64));
         }},
        {"router.num_vcs",
         "virtual channels per physical port (1 for wormhole)",
         [](const SimConfig &c) {
             return std::to_string(c.net.router.numVcs);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.router.numVcs =
                 int(parseInt("router.num_vcs", v, 1, 64));
         }},
        {"router.buf_depth", "buffer depth in flits per VC FIFO (>= 1)",
         [](const SimConfig &c) {
             return std::to_string(c.net.router.bufDepth);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.router.bufDepth =
                 int(parseInt("router.buf_depth", v, 1, 1 << 20));
         }},
        {"router.spec_equal_priority",
         "ablation: drop the non-spec-over-spec allocator priority",
         [](const SimConfig &c) {
             return std::string(
                 c.net.router.specEqualPriority ? "true" : "false");
         },
         [](SimConfig &c, const std::string &v) {
             c.net.router.specEqualPriority =
                 parseBool("router.spec_equal_priority", v);
         }},
        {"sim.seed", "base RNG seed",
         [](const SimConfig &c) { return std::to_string(c.net.seed); },
         [](SimConfig &c, const std::string &v) {
             c.net.seed = parseU64("sim.seed", v);
         }},
        {"sim.warmup", "warm-up cycles before the measurement window",
         [](const SimConfig &c) {
             return std::to_string(c.net.warmup);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.warmup = sim::Cycle(parseU64("sim.warmup", v));
         }},
        {"sim.sample_packets",
         "sample-space size of the measurement protocol",
         [](const SimConfig &c) {
             return std::to_string(c.net.samplePackets);
         },
         [](SimConfig &c, const std::string &v) {
             c.net.samplePackets = parseU64("sim.sample_packets", v);
         }},
        {"sim.max_cycles",
         "hard cap on simulated cycles in sample mode (>= 1)",
         [](const SimConfig &c) {
             return std::to_string(c.maxCycles);
         },
         [](SimConfig &c, const std::string &v) {
             c.maxCycles = sim::Cycle(parseU64("sim.max_cycles", v, 1));
         }},
        {"sim.mode",
         "'sample' (warm-up + sample + drain protocol) or 'fixed' "
         "(run sim.horizon cycles, report steady-state rates)",
         [](const SimConfig &c) { return c.mode; },
         [](SimConfig &c, const std::string &v) {
             if (v != "sample" && v != "fixed")
                 badValue("sim.mode", v, "'sample' or 'fixed'");
             c.mode = v;
         }},
        {"sim.horizon", "cycles simulated in fixed mode (>= 1)",
         [](const SimConfig &c) { return std::to_string(c.horizon); },
         [](SimConfig &c, const std::string &v) {
             c.horizon = sim::Cycle(parseU64("sim.horizon", v, 1));
         }},
        {"sim.audit",
         "run the per-cycle invariant auditor (wake-table exactness, "
         "credit conservation, flit conservation); PDR_AUDIT=1 also "
         "enables it",
         [](const SimConfig &c) {
             return std::string(c.net.audit ? "true" : "false");
         },
         [](SimConfig &c, const std::string &v) {
             c.net.audit = parseBool("sim.audit", v);
         }},
        {"par.workers",
         "intra-network worker threads (results are bit-identical "
         "for any value; 1 = serial, 0 = PDR_PAR_WORKERS or 1)",
         [](const SimConfig &c) {
             return std::to_string(c.parWorkers);
         },
         [](SimConfig &c, const std::string &v) {
             c.parWorkers = int(parseInt("par.workers", v, 0, 512));
         }},
        {"par.scheme",
         "network partitioning scheme: planes (plane-aligned blocks) "
         "or weighted (component-weight-balanced blocks)",
         [](const SimConfig &c) { return c.parScheme; },
         [](SimConfig &c, const std::string &v) {
             (void)par::schemeFromString(v);   // Throws on bad names.
             c.parScheme = v;
         }},
        {"telem.enable",
         "windowed telemetry stream sampler (read-only: results are "
         "bit-identical on or off, at any worker count)",
         [](const SimConfig &c) {
             return std::string(c.telem.enable ? "true" : "false");
         },
         [](SimConfig &c, const std::string &v) {
             c.telem.enable = parseBool("telem.enable", v);
         }},
        {"telem.interval",
         "telemetry sampling window length in cycles (>= 1)",
         [](const SimConfig &c) {
             return std::to_string(c.telem.interval);
         },
         [](SimConfig &c, const std::string &v) {
             c.telem.interval =
                 sim::Cycle(parseU64("telem.interval", v, 1));
         }},
        {"telem.out",
         "telemetry stream destination: a file path, '-' for stdout, "
         "or empty to sample without writing",
         [](const SimConfig &c) { return c.telem.out; },
         [](SimConfig &c, const std::string &v) { c.telem.out = v; }},
        {"telem.trace",
         "Chrome trace-event JSON destination (opens in Perfetto / "
         "chrome://tracing); empty disables tracing",
         [](const SimConfig &c) { return c.telem.trace; },
         [](SimConfig &c, const std::string &v) { c.telem.trace = v; }},
        {"telem.trace_packets",
         "packet-lifecycle trace sampling stride: packets whose id "
         "is a multiple of this are traced (>= 1)",
         [](const SimConfig &c) {
             return std::to_string(c.telem.tracePackets);
         },
         [](SimConfig &c, const std::string &v) {
             c.telem.tracePackets =
                 parseU64("telem.trace_packets", v, 1);
         }},
        {"prof.enable",
         "engine profiler: per-worker phase wall time and per-router "
         "tick weights on the telemetry cadence (read-only: results "
         "are bit-identical on or off, at any worker count)",
         [](const SimConfig &c) {
             return std::string(c.prof.enable ? "true" : "false");
         },
         [](SimConfig &c, const std::string &v) {
             c.prof.enable = parseBool("prof.enable", v);
         }},
    };
    return table;
}

const ParamDef &
find(const std::string &key)
{
    for (const auto &d : defs()) {
        if (key == d.key)
            return d;
    }
    std::string known;
    for (const auto &d : defs())
        known += std::string(known.empty() ? "" : ", ") + d.key;
    throw std::invalid_argument("unknown parameter key '" + key +
                                "' (known: " + known + ")");
}

} // namespace

const std::vector<ParamInfo> &
schema()
{
    static const std::vector<ParamInfo> info = [] {
        std::vector<ParamInfo> out;
        for (const auto &d : defs())
            out.push_back({d.key, d.desc});
        return out;
    }();
    return info;
}

bool
knownKey(const std::string &key)
{
    for (const auto &d : defs()) {
        if (key == d.key)
            return true;
    }
    return false;
}

void
set(SimConfig &cfg, const std::string &key, const std::string &value)
{
    const auto &def = find(key);
    try {
        def.set(cfg, value);
    } catch (const std::invalid_argument &e) {
        // Guarantee the key is named even when the underlying error
        // came from a registry or enum parser.
        std::string msg = e.what();
        if (msg.find(key) == std::string::npos)
            throw std::invalid_argument(key + ": " + msg);
        throw;
    }
}

std::string
get(const SimConfig &cfg, const std::string &key)
{
    return find(key).get(cfg);
}

void
validate(const SimConfig &cfg)
{
    // The network-level checks live on NetworkConfig so this cannot
    // drift from what the Network constructor enforces.
    cfg.net.validate();
    cfg.telem.validate();
    if (cfg.mode != "sample" && cfg.mode != "fixed") {
        throw std::invalid_argument(
            "sim.mode must be 'sample' or 'fixed', got '" + cfg.mode +
            "'");
    }
}

std::string
dump(const SimConfig &cfg)
{
    std::string out;
    for (const auto &d : defs()) {
        if (d.derived)
            continue;
        out += std::string(d.key) + " = " + d.get(cfg) + "\n";
    }
    return out;
}

void
apply(SimConfig &cfg, const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        auto eq = t.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument(csprintf(
                "line %d: expected 'key = value', got '%s'", lineno,
                t.c_str()));
        }
        try {
            set(cfg, trim(t.substr(0, eq)), trim(t.substr(eq + 1)));
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                csprintf("line %d: %s", lineno, e.what()));
        }
    }
}

SimConfig
parse(const std::string &text)
{
    SimConfig cfg;
    apply(cfg, text);
    return cfg;
}

} // namespace params

// ---------------------------------------------------------------------
// Experiment.
// ---------------------------------------------------------------------

namespace {

/** Split a list value on commas and/or whitespace. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : value) {
        if (ch == ',' || ch == ' ' || ch == '\t') {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else {
            cur += ch;
        }
    }
    if (!cur.empty())
        out.push_back(std::move(cur));
    return out;
}

} // namespace

constexpr const char *Experiment::kLoadsKey;

void
Experiment::set(const std::string &key, const std::string &value)
{
    if (key == "name") {
        name = value;
        return;
    }
    if (key == "description") {
        description = value;
        return;
    }
    if (key.rfind("sweep.", 0) == 0) {
        std::string rest = key.substr(6);
        std::string k = rest == "loads" ? kLoadsKey : rest;
        if (!params::knownKey(k)) {
            throw std::invalid_argument(
                "unknown sweep axis key '" + key + "'");
        }
        auto values = splitList(value);
        if (values.empty()) {
            throw std::invalid_argument("sweep axis '" + key +
                                        "' has no values");
        }
        // Validate each value against the schema on a scratch config.
        SimConfig scratch = base;
        for (const auto &v : values)
            params::set(scratch, k, v);
        for (auto &a : axes) {
            if (a.key == k) {
                a.values = values;
                return;
            }
        }
        axes.push_back({k, values});
        return;
    }
    params::set(base, key, value);
}

Experiment
Experiment::parse(const std::string &text)
{
    Experiment exp;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    Curve *cur = nullptr;
    SimConfig scratch;  // Curve overrides validated as they appear.

    while (std::getline(in, line)) {
        lineno++;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        try {
            if (t[0] == '[') {
                if (t.back() != ']' || t.rfind("[curve ", 0) != 0) {
                    throw std::invalid_argument(
                        "expected '[curve LABEL]', got '" + t + "'");
                }
                std::string label =
                    trim(t.substr(7, t.size() - 8));
                if (label.empty()) {
                    throw std::invalid_argument(
                        "curve label must not be empty");
                }
                exp.curves.push_back({label, {}});
                cur = &exp.curves.back();
                scratch = exp.base;
                continue;
            }
            auto eq = t.find('=');
            if (eq == std::string::npos) {
                throw std::invalid_argument(
                    "expected 'key = value', got '" + t + "'");
            }
            std::string key = trim(t.substr(0, eq));
            std::string value = trim(t.substr(eq + 1));
            if (!cur) {
                exp.set(key, value);
            } else {
                if (key.rfind("sweep.", 0) == 0 || key == "name" ||
                    key == "description") {
                    throw std::invalid_argument(
                        "'" + key + "' is not allowed inside a "
                        "[curve] section");
                }
                params::set(scratch, key, value);  // Validates.
                cur->overrides.push_back({key, value});
            }
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                csprintf("line %d: %s", lineno, e.what()));
        }
    }
    return exp;
}

Experiment
Experiment::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::invalid_argument("cannot open experiment file '" +
                                    path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return parse(text.str());
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

std::string
Experiment::dump() const
{
    std::string out;
    if (!name.empty())
        out += "name = " + name + "\n";
    if (!description.empty())
        out += "description = " + description + "\n";
    out += params::dump(base);
    for (const auto &a : axes) {
        out += a.key == kLoadsKey ? std::string("sweep.loads")
                                  : "sweep." + a.key;
        out += " =";
        for (const auto &v : a.values)
            out += " " + v;
        out += "\n";
    }
    for (const auto &c : curves) {
        out += "\n[curve " + c.label + "]\n";
        for (const auto &[k, v] : c.overrides)
            out += k + " = " + v + "\n";
    }
    return out;
}

std::vector<exec::SweepPoint>
Experiment::points() const
{
    std::vector<Curve> cs = curves;
    if (cs.empty())
        cs.push_back({});

    for (const auto &a : axes) {
        if (a.values.empty()) {
            throw std::invalid_argument("sweep axis '" + a.key +
                                        "' has no values");
        }
    }

    std::vector<exec::SweepPoint> out;
    std::vector<std::size_t> idx(axes.size(), 0);
    while (true) {
        for (const auto &c : cs) {
            SimConfig cfg = base;
            std::string label = c.label;
            for (const auto &[k, v] : c.overrides)
                params::set(cfg, k, v);
            // The offered-load axis is applied after every other axis:
            // its injection rate depends on the capacity of the
            // point's final topology/radix, whatever order the axes
            // were declared in.  (Labels keep declaration order.)
            const std::string *load_value = nullptr;
            for (std::size_t a = 0; a < axes.size(); a++) {
                const std::string &val = axes[a].values[idx[a]];
                if (axes[a].key == kLoadsKey) {
                    load_value = &val;
                    if (!label.empty())
                        label += "@";
                    label += csprintf(
                        "%.3f", std::strtod(val.c_str(), nullptr));
                } else {
                    params::set(cfg, axes[a].key, val);
                    label += "/" + axes[a].key + "=" + val;
                }
            }
            if (load_value)
                params::set(cfg, kLoadsKey, *load_value);
            out.push_back({label, cfg});
        }
        // Odometer over the axes, innermost (last) axis fastest.
        std::size_t a = axes.size();
        while (a > 0) {
            a--;
            if (++idx[a] < axes[a].values.size())
                break;
            idx[a] = 0;
            if (a == 0)
                return out;
        }
        if (axes.empty())
            return out;
    }
}

void
Experiment::validate() const
{
    params::validate(base);
    for (const auto &p : points())
        params::validate(p.cfg);
}

void
Experiment::applyEnv()
{
    const char *fast = std::getenv("PDR_FAST");
    if (fast && fast[0] == '1') {
        for (auto &a : axes) {
            if (a.key == kLoadsKey)
                a.values = {"0.1", "0.3", "0.5", "0.7"};
        }
        base.net.samplePackets =
            std::min<std::uint64_t>(base.net.samplePackets, 3000);
    }
    base.applyEnvDefaults();
}

} // namespace pdr::api
