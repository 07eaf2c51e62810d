#!/usr/bin/env python3
"""Determinism lint for the pipelined-router simulator.

The simulator's headline property is bit-identical results across
thread counts, worker counts and sweep slices (docs/ARCHITECTURE.md,
"Determinism invariants").  Most violations of that contract come from
a handful of well-known C++ constructs -- wall-clock reads, unseeded
RNGs, address-dependent iteration order -- that compile fine, pass
small tests, and then surface as a byte-diff ten thousand cycles into
a golden sweep.  This lint names those constructs and rejects them at
review time.

Checks are regex-based over comment- and string-stripped source, so
the tool needs nothing beyond the Python standard library and runs in
milliseconds as a CTest.  That makes it deliberately approximate: it
is a tripwire for the known hazard classes, not a parser.  clang-tidy
(.clang-tidy at the repo root) covers the general-purpose static
analysis; the runtime auditor (src/sim/audit.hh) covers what analysis
cannot see.

Suppressions
------------
A finding is suppressed by a justified allow comment on the same line
or the line directly above:

    // pdr-lint: allow(PDR-ORD-UNORD) keyed lookup only, never iterated

The justification text is mandatory; an allow() without one does not
suppress (and is itself reported), so every suppression documents why
the construct is safe.

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------
# Rule table.  `scope` is a predicate over the repo-relative posix
# path; `pattern` runs per stripped line.  Rules needing more context
# than one line implement `check(path, lines)` instead and yield
# (lineno, message) pairs.
# ---------------------------------------------------------------------

HOT_DIRS = ("src/net/", "src/router/", "src/arb/", "src/par/",
            "src/sim/", "src/traffic/")

# Directories whose code may legitimately read the host clock for
# *observability* (sweep wall-time telemetry, the host-profile trace
# stream, the engine profiler's worker-phase timing).  Wall-clock
# reads there fall under PDR-OBS-WALLCLOCK -- still
# suppression-gated, but with an observability-specific message --
# while everywhere else in src/ (notably src/par/, whose phase
# transitions the profiler timestamps from the *outside*) stays under
# the stricter PDR-RNG-TIME.
OBS_DIRS = ("src/telem/", "src/exec/", "src/prof/")


def in_src(path):
    return path.startswith("src/")


def in_hot(path):
    return path.startswith(HOT_DIRS)


def in_obs(path):
    return path.startswith(OBS_DIRS)


def in_src_except_obs(path):
    return in_src(path) and not in_obs(path)


def in_src_except_rng(path):
    return in_src(path) and not path.startswith("src/common/rng")


RNG_SRC_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand|rand_r|drand48|lrand48|mrand48)\s*\("
    r"|std::random_device"
    r"|std::mt19937(?:_64)?\b"
    r"|std::minstd_rand0?\b"
    r"|std::default_random_engine"
    r"|std::(?:uniform_(?:int|real)|bernoulli|normal|poisson|geometric|"
    r"exponential|discrete)_distribution"
)

RNG_TIME_RE = re.compile(
    r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\bclock\s*\(\s*\)"
    r"|std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"::now"
)

ORD_UNORD_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<")

# A pointer-typed key in an associative container: iteration (ordered)
# or bucket order (unordered) then depends on allocation addresses.
ORD_PTRKEY_RE = re.compile(
    r"std::(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")

STA_MUT_RE = re.compile(
    r"^\s*static\s+"
    r"(?!const\b|constexpr\b|class\b|struct\b|assert)"
    r"(?:[\w:]+(?:\s*<[^;{}]*>)?[\s&*]+)"
    r"(\w+)\s*(?:=|\{|;|\[)")

UNORD_DECL_NAME_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;={]*>\s*&?\s*"
    r"(\w+)\s*[;={(]")

RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*(?:\w+\s*\.\s*)?(\w+)\s*\)")
BEGIN_ITER_RE = re.compile(r"\b(\w+)\s*\.\s*begin\s*\(\s*\)")


def check_ord_iter(path, lines):
    """Range-for / .begin() over a container declared unordered in the
    same file: bucket order is hash- and address-dependent, so any fold
    over it is nondeterministic."""
    unordered = set()
    for line in lines:
        m = UNORD_DECL_NAME_RE.search(line)
        if m:
            unordered.add(m.group(1))
    if not unordered:
        return
    for no, line in enumerate(lines, 1):
        for regex in (RANGE_FOR_RE, BEGIN_ITER_RE):
            m = regex.search(line)
            if m and m.group(1) in unordered:
                yield (no, "iteration over unordered container '%s': "
                           "bucket order is hash/address-dependent; "
                           "use an ordered container or sort first"
                           % m.group(1))
                break


CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)\s*(?:final\s*)?"
    r"(:?)")
VIRTUAL_RE = re.compile(r"^\s*virtual\b")


def iter_class_bodies(lines):
    """Yield (head_lineno, name, derived, body_line_numbers) for every
    class/struct defined in `lines` (stripped source).  Brace-counting
    approximation; nested classes are reported too."""
    depth = 0
    stack = []          # (entry_depth, head_no, name, derived)
    pending = None      # (head_no, name, saw_colon) until '{' or ';'
    out = []
    for no, line in enumerate(lines, 1):
        scan = line
        if pending is None:
            m = CLASS_HEAD_RE.search(scan)
            if m and not re.search(r"\benum\s+(?:class|struct)\b", scan):
                head = scan[m.end():]
                if ";" in head and ("{" not in head or
                                    head.index(";") < head.index("{")):
                    pass  # Forward declaration.
                else:
                    pending = [no, m.group(1),
                               m.group(2) == ":" or
                               bool(re.search(r":\s*(?:public|protected|"
                                              r"private|virtual)\b",
                                              head))]
                    if "{" not in scan:
                        depth += scan.count("{") - scan.count("}")
                        continue
        if pending is not None:
            if re.search(r":\s*(?:public|protected|private|virtual)\b",
                         scan) or re.match(r"\s*:", scan):
                pending[2] = True
            if "{" in scan:
                stack.append((depth, pending[0], pending[1],
                              pending[2], []))
                pending = None
            elif ";" in scan:
                pending = None
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while stack and depth <= stack[-1][0]:
                    entry = stack.pop()
                    out.append((entry[1], entry[2], entry[3], entry[4]))
        for entry in stack:
            entry[4].append(no)
    while stack:
        entry = stack.pop()
        out.append((entry[1], entry[2], entry[3], entry[4]))
    return out


def check_ovr_virt(path, lines):
    """`virtual` on a member of a derived class: re-declared virtuals
    must spell `override` so signature drift breaks the build instead
    of silently forking the vtable."""
    for head_no, name, derived, body in iter_class_bodies(lines):
        if not derived:
            continue
        for no in body:
            line = lines[no - 1]
            if (VIRTUAL_RE.search(line) and "override" not in line and
                    "final" not in line):
                yield (no, "'virtual' in derived class %s without "
                           "'override': spell 'override' (drop the "
                           "redundant 'virtual') so base-signature "
                           "drift is a compile error" % name)


# Dense allocation-path structures/scans in src/arb/: a vector<bool>
# request row, or a for loop whose bound is a dense arbiter dimension
# (bare size(), n_/p_/v_ members, the nivc = p*v product).  The bound
# must directly follow the comparison so container.size() calls and
# word-count loops (words_, nivcWords_) stay out of scope.
DENSESCAN_RE = re.compile(
    r"std::vector\s*<\s*bool\s*>"
    r"|\bfor\s*\([^;]*;[^;]*<=?\s*"
    r"(?:size\s*\(\s*\)|(?:n_|p_|v_|nivc)\b)")

# The clock may jump only inside Network::drive (src/net/network.cc);
# anywhere else in src/, a skipIdle() call is a hand-rolled copy of the
# stepping loop.
STEP_LOOP_RE = re.compile(r"\bskipIdle\s*\(")
STEP_LOOP_HOME = ("src/net/network.hh", "src/net/network.cc")

TICK_DECL_RE = re.compile(r"\btick\s*\(\s*(?:sim::)?Cycle\b")
NEXTWAKE_RE = re.compile(r"\bnextWake\w*\s*\(")


def check_wake_next(path, lines):
    """A ticking component without a nextWake(): every tick()ing class
    must report its next wake cycle or the activity-driven scheduler
    cannot prove skipping it is a no-op (invariant 1)."""
    if not path.endswith((".hh", ".h")):
        return
    for head_no, name, derived, body in iter_class_bodies(lines):
        has_tick = any(TICK_DECL_RE.search(lines[no - 1]) for no in body)
        has_wake = any(NEXTWAKE_RE.search(lines[no - 1]) for no in body)
        if has_tick and not has_wake:
            yield (head_no, "class %s declares tick() but no "
                            "nextWake(): the wake-table scheduler "
                            "needs an exact next-wake report to skip "
                            "it soundly" % name)


class Rule:
    def __init__(self, rid, summary, scope, pattern=None, check=None,
                 message=None):
        self.rid = rid
        self.summary = summary
        self.scope = scope
        self.pattern = pattern
        self.check = check
        self.message = message

    def findings(self, path, lines):
        if not self.scope(path):
            return
        if self.check is not None:
            yield from self.check(path, lines)
            return
        for no, line in enumerate(lines, 1):
            if self.pattern.search(line):
                yield (no, self.message)


RULES = [
    Rule("PDR-RNG-SRC",
         "RNG outside common/rng: raw rand()/<random> engines and "
         "distributions are unseeded or implementation-defined; all "
         "randomness must flow through the owned pdr::Rng streams "
         "(invariant 3)",
         in_src_except_rng, pattern=RNG_SRC_RE,
         message="raw RNG source: route randomness through pdr::Rng "
                 "(src/common/rng.hh) so streams are seeded, owned and "
                 "reproducible"),
    Rule("PDR-RNG-TIME",
         "wall-clock read: time()/clock()/chrono clocks feeding "
         "simulation state make runs time-dependent; simulated time is "
         "the only clock (the src/telem/, src/exec/ and src/prof/ "
         "observability paths are governed by PDR-OBS-WALLCLOCK "
         "instead)",
         in_src_except_obs, pattern=RNG_TIME_RE,
         message="wall-clock read: simulation behavior may not depend "
                 "on host time (telemetry needs a justified "
                 "suppression)"),
    Rule("PDR-OBS-WALLCLOCK",
         "wall-clock read in an observability path (src/telem/, "
         "src/exec/, src/prof/): host time is allowed only in "
         "host-profile / wall-time telemetry streams that never feed "
         "simulation state or sim-facing output, and every read must "
         "carry a justified suppression saying so",
         in_obs, pattern=RNG_TIME_RE,
         message="wall-clock read in an observability path: confine "
                 "it to the host-profile / wall-time stream and "
                 "justify with a suppression that the value never "
                 "reaches simulation state or sim-facing output"),
    Rule("PDR-ORD-UNORD",
         "unordered container in a hot-path component: iteration/bucket "
         "order is hash- and address-dependent; hot-path state must "
         "use deterministically ordered containers (invariant 2)",
         in_hot, pattern=ORD_UNORD_RE,
         message="std::unordered_* in a simulation component: bucket "
                 "order is not deterministic; use a vector/std::map or "
                 "justify that it is never iterated"),
    Rule("PDR-ORD-ITER",
         "iteration over an unordered container declared in the same "
         "file: any fold over bucket order is nondeterministic",
         in_hot, check=check_ord_iter),
    Rule("PDR-ORD-PTRKEY",
         "pointer-keyed associative container: ordering (or hashing) "
         "by address varies run to run with ASLR and allocation order",
         in_src, pattern=ORD_PTRKEY_RE,
         message="pointer-keyed container: address order varies per "
                 "run; key by a stable id instead"),
    Rule("PDR-OVR-VIRT",
         "'virtual' without 'override' in a derived class: signature "
         "drift against the base silently forks the vtable",
         in_src, check=check_ovr_virt),
    Rule("PDR-STA-MUT",
         "mutable static state: per-process state shared across "
         "Networks/sweep points breaks run-to-run and slice "
         "independence (invariant 5)",
         in_src, pattern=STA_MUT_RE,
         message="mutable static: process-global state leaks across "
                 "simulations and sweep slices; make it per-Network or "
                 "justify why it cannot affect results"),
    Rule("PDR-PERF-DENSESCAN",
         "dense request row or full-range scan in src/arb/: the "
         "allocation hot path stages requests as packed uint64_t bid "
         "words and iterates set bits; vector<bool> rows and loops "
         "bounded by a dense arbiter dimension (size(), n_, p_, v_, "
         "nivc) reintroduce the O(p*v) walk the bitmask engine removed",
         lambda p: p.startswith("src/arb/"),
         pattern=DENSESCAN_RE,
         message="dense structure/scan on the allocation path: stage "
                 "requests as packed bid words and walk set bits "
                 "(ctz), or justify (one-time ctor, diagnostics, "
                 "compat or ablation code off the router hot path)"),
    Rule("PDR-STEP-LOOP",
         "skipIdle() call outside src/net/network.{hh,cc}: a "
         "hand-rolled stepping loop; Network::drive is the one loop "
         "that jumps the clock, polls epoch observers and applies the "
         "resume rule",
         lambda p: in_src(p) and p not in STEP_LOOP_HOME,
         pattern=STEP_LOOP_RE,
         message="hand-rolled stepping loop: advance the clock through "
                 "Network::drive (or Network/ParallelStepper::stepTo) "
                 "instead of calling skipIdle()"),
    Rule("PDR-WAKE-NEXT",
         "component with tick() but no nextWake(): unschedulable under "
         "the wake-table scheduler (invariant 1)",
         lambda p: p.startswith(("src/router/", "src/traffic/",
                                 "src/net/")),
         check=check_wake_next),
]


# ---------------------------------------------------------------------
# Comment / string stripping (line-preserving).
# ---------------------------------------------------------------------

def strip_source(text):
    """Blank out comments and string/char literal contents, preserving
    line structure so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "str"
                out.append('"')
                i += 1
            elif c == "'":
                state = "chr"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            elif c == "\n":  # Unterminated; keep line structure.
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


# ---------------------------------------------------------------------
# Suppressions.
# ---------------------------------------------------------------------

ALLOW_RE = re.compile(
    r"pdr-lint:\s*allow\(\s*([A-Z0-9,\s-]+?)\s*\)\s*(\S.*)?$")


def collect_suppressions(raw_lines, stripped_lines):
    """Map line number -> set of allowed rule ids.  An allow comment
    applies to its own line and -- skipping any comment-only/blank
    lines, so a wrapped justification may span several lines -- the
    first following code line.  Returns (allowed, bad) where bad lists
    (lineno, reason) for malformed allows (missing justification)."""
    allowed = {}
    bad = []
    for no, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        ids = {t.strip() for t in m.group(1).split(",") if t.strip()}
        just = (m.group(2) or "").strip().rstrip("*/").strip()
        if not just:
            bad.append((no, "pdr-lint allow(%s) has no justification; "
                            "suppression ignored" % ",".join(sorted(ids))))
            continue
        unknown = ids - {r.rid for r in RULES}
        if unknown:
            bad.append((no, "pdr-lint allow() names unknown rule(s) "
                            "%s" % ",".join(sorted(unknown))))
        allowed.setdefault(no, set()).update(ids)
        target = no + 1
        while (target <= len(stripped_lines) and
               not stripped_lines[target - 1].strip()):
            allowed.setdefault(target, set()).update(ids)
            target += 1
        allowed.setdefault(target, set()).update(ids)
    return allowed, bad


# ---------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------

def lint_text(path, text):
    """Lint one file's content under repo-relative posix `path`.
    Returns a list of (lineno, rule_id, message)."""
    raw_lines = text.splitlines()
    lines = strip_source(text).splitlines()
    allowed, bad = collect_suppressions(raw_lines, lines)
    findings = [(no, "PDR-LINT-SUPPRESS", msg) for no, msg in bad]
    for rule in RULES:
        for no, msg in rule.findings(path, lines):
            if rule.rid in allowed.get(no, ()):
                continue
            findings.append((no, rule.rid, msg))
    findings.sort()
    return findings


def repo_relative(root, p):
    try:
        return p.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return p.as_posix()


def iter_source_files(root, targets):
    for t in targets:
        p = Path(t)
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in (".cc", ".hh", ".h", ".cpp", ".hpp"):
                    yield f
        elif p.is_file():
            yield p
        else:
            print("pdr_lint: no such path: %s" % t, file=sys.stderr)
            sys.exit(2)


def run_lint(root, targets):
    total = 0
    for f in iter_source_files(root, targets):
        rel = repo_relative(root, f)
        text = f.read_text(encoding="utf-8", errors="replace")
        for no, rid, msg in lint_text(rel, text):
            print("%s:%d: %s: %s" % (rel, no, rid, msg))
            total += 1
    if total:
        print("pdr_lint: %d finding(s)" % total, file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------
# Self-test: every rule must fire on its seeded violation, stay quiet
# on the clean variant, and honor a justified suppression.
# ---------------------------------------------------------------------

FIXTURES = [
    # (rule id, path, bad snippet, clean snippet)
    ("PDR-RNG-SRC", "src/traffic/demo.cc",
     "int draw() { return rand() % 6; }\n",
     "int draw(pdr::Rng &rng) { return rng.uniformInt(0, 5); }\n"),
    ("PDR-RNG-SRC", "src/router/demo.cc",
     "std::mt19937 gen;\n",
     "pdr::Rng gen;\n"),
    ("PDR-RNG-TIME", "src/sim/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n",
     "sim::Cycle t0 = now;\n"),
    ("PDR-RNG-TIME", "src/api/demo.cc",
     "std::uint64_t seed = time(nullptr);\n",
     "std::uint64_t seed = cfg.seed;\n"),
    ("PDR-OBS-WALLCLOCK", "src/telem/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n",
     "sim::Cycle t0 = net.now();\n"),
    ("PDR-OBS-WALLCLOCK", "src/exec/demo.cc",
     "auto start = std::chrono::steady_clock::now();\n",
     "sim::Cycle start = 0;\n"),
    ("PDR-OBS-WALLCLOCK", "src/prof/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n",
     "sim::Cycle t0 = net.now();\n"),
    # The profiler times src/par/ phases, but from its own shards:
    # raw clock reads inside the stepper itself stay forbidden.
    ("PDR-RNG-TIME", "src/par/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n",
     "prof->mark(w, prof::Profiler::Phase::Tick);\n"),
    ("PDR-ORD-UNORD", "src/router/demo.hh",
     "std::unordered_map<int, int> credits_;\n",
     "std::vector<int> credits_;\n"),
    ("PDR-ORD-ITER", "src/net/demo.cc",
     "std::unordered_set<int> live_;\n"
     "void scan() { for (int id : live_) { use(id); } }\n",
     "std::set<int> live_;\n"
     "void scan() { for (int id : live_) { use(id); } }\n"),
    ("PDR-ORD-PTRKEY", "src/par/demo.hh",
     "std::map<Router *, int> owner_;\n",
     "std::map<int, int> owner_;\n"),
    ("PDR-OVR-VIRT", "src/router/demo.hh",
     "class Fancy : public Arbiter {\n"
     "  public:\n"
     "    virtual int pick(int n);\n"
     "};\n",
     "class Fancy : public Arbiter {\n"
     "  public:\n"
     "    int pick(int n) override;\n"
     "};\n"),
    ("PDR-STA-MUT", "src/arb/demo.cc",
     "static int grantCount = 0;\n",
     "static const int kMaxGrants = 8;\n"),
    ("PDR-PERF-DENSESCAN", "src/arb/demo.hh",
     "std::vector<bool> reqRow_;\n",
     "std::uint64_t reqBits_ = 0;\n"),
    ("PDR-PERF-DENSESCAN", "src/arb/demo.cc",
     "int pick() {\n"
     "    for (int i = 0; i < size(); i++) {\n"
     "        if (req_[i]) return i;\n"
     "    }\n"
     "    return NoGrant;\n"
     "}\n",
     "int pick(std::uint64_t m) {\n"
     "    while (m) { int i = ctz64(m); m &= m - 1; return i; }\n"
     "    return NoGrant;\n"
     "}\n"),
    ("PDR-PERF-DENSESCAN", "src/arb/demo2.cc",
     "void stage() {\n"
     "    for (int vc = 0; vc < v_; vc++)\n"
     "        row_[vc] = inReq_[vc];\n"
     "}\n",
     "void stage() {\n"
     "    for (int w = 0; w < nivcWords_; w++)\n"
     "        row_[w] = inReq_[w];\n"
     "}\n"),
    ("PDR-STEP-LOOP", "src/api/demo.cc",
     "void sample(net::Network &net, sim::Cycle end) {\n"
     "    while (net.now() < end) {\n"
     "        net.skipIdle(end);\n"
     "        if (net.now() < end) net.step();\n"
     "    }\n"
     "}\n",
     "void sample(net::Network &net, sim::Cycle end) {\n"
     "    net.stepTo(end);\n"
     "}\n"),
    ("PDR-WAKE-NEXT", "src/traffic/demo.hh",
     "class Pulser {\n"
     "  public:\n"
     "    void tick(sim::Cycle now);\n"
     "};\n",
     "class Pulser {\n"
     "  public:\n"
     "    void tick(sim::Cycle now);\n"
     "    sim::Cycle nextWake(sim::Cycle now) const;\n"
     "};\n"),
]

SCOPE_FIXTURES = [
    # Out-of-scope paths where the same construct must NOT fire.
    ("PDR-RNG-SRC", "src/common/rng.cc",
     "std::mt19937_64 engine_;\n"),
    ("PDR-ORD-UNORD", "src/api/demo.cc",
     "std::unordered_map<std::string, int> keys_;\n"),
    ("PDR-RNG-SRC", "tests/common/demo.cc",
     "int r = rand();\n"),
    ("PDR-PERF-DENSESCAN", "src/router/demo.cc",
     "void scan() { for (int i = 0; i < p_; i++) use(i); }\n"),
    # Observability dirs are PDR-OBS-WALLCLOCK territory ...
    ("PDR-RNG-TIME", "src/telem/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n"),
    ("PDR-RNG-TIME", "src/exec/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n"),
    ("PDR-RNG-TIME", "src/prof/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n"),
    # ... and the rest of src/ is PDR-RNG-TIME territory.
    ("PDR-OBS-WALLCLOCK", "src/router/demo.cc",
     "auto t0 = std::chrono::steady_clock::now();\n"),
    # The loop's own home, and tests, may call skipIdle().
    ("PDR-STEP-LOOP", "src/net/network.cc",
     "    skipIdle(cap);\n"),
    ("PDR-STEP-LOOP", "tests/net/demo.cc",
     "EXPECT_EQ(net.skipIdle(100), 100u);\n"),
]


def selftest():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    for rid, path, bad, clean in FIXTURES:
        hits = [f for f in lint_text(path, bad) if f[1] == rid]
        expect(hits, "%s: seeded violation in %s not caught" %
               (rid, path))
        others = [f for f in lint_text(path, clean)]
        expect(not others, "%s: clean variant in %s flagged: %r" %
               (rid, path, others))

        # Suppression with justification silences exactly this rule.
        first_bad = min((f[0] for f in lint_text(path, bad)
                         if f[1] == rid), default=1)
        lines = bad.splitlines(True)
        lines.insert(first_bad - 1,
                     "// pdr-lint: allow(%s) selftest fixture, known "
                     "safe\n" % rid)
        supp = "".join(lines)
        left = [f for f in lint_text(path, supp) if f[1] == rid]
        expect(not left, "%s: justified suppression not honored" % rid)

        # ... but an unjustified one is ignored and reported.
        lines = bad.splitlines(True)
        lines.insert(first_bad - 1, "// pdr-lint: allow(%s)\n" % rid)
        nojust = "".join(lines)
        still = [f for f in lint_text(path, nojust) if f[1] == rid]
        expect(still, "%s: unjustified suppression silenced the "
                      "finding" % rid)
        reported = [f for f in lint_text(path, nojust)
                    if f[1] == "PDR-LINT-SUPPRESS"]
        expect(reported, "%s: unjustified suppression not reported" %
               rid)

    for rid, path, code in SCOPE_FIXTURES:
        hits = [f for f in lint_text(path, code) if f[1] == rid]
        expect(not hits, "%s: fired outside its scope in %s" %
               (rid, path))

    # Comment/string stripping: hazards in comments or literals are
    # not code.
    quiet = ('// rand() in a comment\n'
             'const char *kDoc = "std::unordered_map<int,int> m;";\n'
             '/* time(nullptr) in a block comment */\n')
    expect(not lint_text("src/sim/demo.cc", quiet),
           "stripping: comment/string contents were linted")

    if failures:
        for f in failures:
            print("selftest FAIL: %s" % f, file=sys.stderr)
        return 1
    print("pdr_lint selftest: %d rules, %d fixtures OK" %
          (len(RULES), len(FIXTURES) + len(SCOPE_FIXTURES)))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="determinism lint for the pdr simulator")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src/)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule ids and summaries, then exit")
    ap.add_argument("--selftest", action="store_true",
                    help="run the embedded rule fixtures, then exit")
    ap.add_argument("--root", default=None,
                    help="repo root for scope-relative paths "
                         "(default: two levels above this script)")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print("%s: %s" % (r.rid, r.summary))
        return 0
    if args.selftest:
        return selftest()

    root = Path(args.root) if args.root else \
        Path(__file__).resolve().parents[2]
    targets = args.paths or [str(root / "src")]
    return run_lint(root, targets)


if __name__ == "__main__":
    sys.exit(main())
