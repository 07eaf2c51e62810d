#!/usr/bin/env python3
"""Summarise pdr-bench samples and judge A/B pairs.

    ledger.py summarize SAMPLES OUT.json [key=value ...]
    ledger.py ab SAMPLES BENCHMARK.json

SAMPLES holds one metric per line, `<tag> <workload> <metric> <value>
<unit>`, as benchmark/run.sh and benchmark/ab.sh write them.  The tag
is the repeat number, or `<pair>:<side>` (side `base` or `rev`) for an
A/B run.  Quartiles are Python's statistics.quantiles(values, n=4).
"""

import json
import statistics
import sys
from collections import defaultdict


def read(path):
    rows = []
    with open(path) as f:
        for line in f:
            tag, workload, metric, value, unit = line.split()
            rows.append((tag, workload, metric, float(value), unit))
    return rows


def spread(values):
    """Median, first and third quartile, minimum."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, min(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, min(values)


def summarize(samples, out, meta):
    groups = defaultdict(list)
    units = {}
    for _, workload, metric, value, unit in read(samples):
        groups[(workload, metric)].append(value)
        units[(workload, metric)] = unit
    result = {"meta": meta, "metrics": []}
    print(f"# {' '.join(f'{k}={v}' for k, v in meta.items())}")
    print(f"# {'workload':<18} {'metric':<38} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12}  n  unit")
    for (workload, metric), values in groups.items():
        med, q1, q3, lo = spread(values)
        unit = units[(workload, metric)]
        print(f"{workload} {metric} {med:.10g} {unit}")
        print(f"# {workload:<18} {metric:<38} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {lo:12.6g} {len(values):2d}  {unit}")
        result["metrics"].append({
            "workload": workload, "metric": metric, "unit": unit,
            "median": med, "q1": q1, "q3": q3, "min": lo,
            "n": len(values), "samples": values})
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"# wrote {out}")


def verdict(base, rev, bound, lower_better):
    """The rule of benchmark/README.md (A/B section)."""
    b_med, b_q1, b_q3, _ = spread(base)
    r_med, r_q1, r_q3, _ = spread(rev)
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for b, r in zip(base, rev) if sign * (b - r) > 0)
    win_frac = wins / len(base)
    worse_by = sign * (r_med - b_med) / b_med
    rel_spread = max((b_q3 - b_q1) / b_med, (r_q3 - r_q1) / r_med)
    if win_frac >= 0.9 and worse_by < 0 and abs(r_med - b_med) > b_q3 - b_q1:
        return win_frac, "improved"
    all_better = all(sign * (b - r) > 0 for b in base for r in rev)
    if rel_spread > bound and not all_better:
        return win_frac, "unresolved"
    if worse_by <= bound:
        return win_frac, "no regression"
    return win_frac, "regressed"


def ab(samples, bench_json):
    with open(bench_json) as f:
        e2e = {m["name"]: m for m in json.load(f)["end_to_end"]}
    # (workload, metric) -> side -> {pair: value}
    runs = defaultdict(lambda: defaultdict(dict))
    for tag, workload, metric, value, _ in read(samples):
        if metric in e2e:
            pair, side = tag.split(":")
            runs[(workload, metric)][side][pair] = value
    print(f"{'workload':<18} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'rev median [q1, q3]':>30} {'wins':>5}  verdict")
    worst = "no regression"
    for (workload, metric), sides in runs.items():
        pairs = sorted(set(sides["base"]) & set(sides["rev"]), key=int)
        base = [sides["base"][p] for p in pairs]
        rev = [sides["rev"][p] for p in pairs]
        m = e2e[metric]
        win_frac, v = verdict(base, rev, m["bound"], m["better"] == "lower")
        b_med, b_q1, b_q3, _ = spread(base)
        r_med, r_q1, r_q3, _ = spread(rev)
        print(f"{workload:<18} {metric:<12} "
              f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>30} "
              f"{f'{r_med:.4g} [{r_q1:.4g}, {r_q3:.4g}]':>30} "
              f"{win_frac:5.2f}  {v}")
        if v in ("regressed", "unresolved") and worst != "regressed":
            worst = v
    print(f"# {len(pairs)} pairs; overall: {worst}")
    return 1 if worst == "regressed" else 0


def main(argv):
    if len(argv) >= 3 and argv[0] == "summarize":
        meta = dict(kv.split("=", 1) for kv in argv[3:])
        summarize(argv[1], argv[2], meta)
        return 0
    if len(argv) == 3 and argv[0] == "ab":
        return ab(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
