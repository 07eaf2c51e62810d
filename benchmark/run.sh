#!/usr/bin/env bash
# pdr-bench: build the benchmark program, pdr_bench, and run it.  See
# benchmark/README.md for the workloads and the metric catalogue.
#
#   benchmark/run.sh                  the end-to-end ledger: every workload
#                                     x --repeats (default 5), round-robin,
#                                     one process per run
#   benchmark/run.sh --traced         one traced per-layer run per workload
#   benchmark/run.sh --smoke          one short run of both tiers per
#                                     workload, every check on (~2 min)
#   benchmark/run.sh --bless          rewrite benchmark/reference/
#                                     (seeds 1 and 2, allocator checksums)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run; its last stdout line is the
#                                     JSON result (the BENCHMARK.json command)
#
# Ledger options: --repeats N, --seconds S (per run, default 25),
# --seed N (default 1).  Results land in benchmark/out/.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
    echo "run.sh: needs the full repository around benchmark/" >&2
    exit 2
fi

out=benchmark/out
build=$out/build
bin=$build/pdr_bench
mkdir -p "$out"

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

build_bench() {
    local log=$out/build.log
    if [[ ! -f $build/CMakeCache.txt ]]; then
        local gen=()
        command -v ninja > /dev/null && gen=(-G Ninja)
        cmake -S benchmark -B "$build" "${gen[@]}" \
            -DCMAKE_BUILD_TYPE=Release > "$log" 2>&1 ||
            { tail -n 30 "$log" >&2; exit 1; }
    fi
    cmake --build "$build" -j "$(nproc)" >> "$log" 2>&1 ||
        { tail -n 30 "$log" >&2; exit 1; }
}

repeats=5 seconds=25 seed=1 mode=ledger single=0
args=()
while (($#)); do
    case $1 in
      --workload|--trace) single=1; args+=("$1" "$2"); shift 2 ;;
      --seed) seed=$2; args+=("$1" "$2"); shift 2 ;;
      --seconds) seconds=$2; args+=("$1" "$2"); shift 2 ;;
      --repeats) repeats=$2; shift 2 ;;
      --traced) mode=traced; shift ;;
      --smoke) mode=smoke; shift ;;
      --bless) mode=bless; shift ;;
      --build-only) mode=build; shift ;;
      *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

build_bench
if ((single)); then
    exec "$bin" "${args[@]}" --rev "$rev"
fi

workloads=()
for f in benchmark/workloads/*.exp; do
    workloads+=("$(basename "$f" .exp)")
done

# One pdr_bench process; its metric lines go to $samples prefixed with
# the repeat tag, and a run that is not correct stops everything.
samples=
run_one() {
    local tag=$1 log ok=1
    shift
    log=$(mktemp "$out/run.XXXXXX")
    "$bin" "$@" --rev "$rev" > "$log" || ok=0
    grep '^#' "$log" || true
    if ((ok)) && tail -n 1 "$log" | grep -q '^{"correct": true'; then
        grep -v '^[#{]' "$log" | sed "s/^/$tag /" >> "$samples"
        rm -f "$log"
        return
    fi
    tail -n 1 "$log" >&2
    echo "run.sh: incorrect result: $*" >&2
    rm -f "$log"
    exit 1
}

summarize() {
    python3 benchmark/ledger.py summarize "$samples" "$1" \
        "nproc=$(nproc)" "rev=$rev" "build=Release" "seed=$seed"
}

case $mode in
  build) ;;
  ledger)
    samples=$out/samples.txt
    : > "$samples"
    # Round-robin, so slow drift of the machine spreads over every
    # workload evenly.
    for ((r = 1; r <= repeats; r++)); do
        for w in "${workloads[@]}"; do
            run_one "$r" --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace 0
        done
    done
    summarize "$out/results.json" ;;
  traced)
    samples=$out/samples.traced.txt
    : > "$samples"
    for w in "${workloads[@]}"; do
        run_one 1 --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace 1
    done
    summarize "$out/results.traced.json" ;;
  smoke)
    samples=$out/samples.smoke.txt
    : > "$samples"
    for w in "${workloads[@]}"; do
        for t in 0 1; do
            run_one 1 --workload "$w" --seed "$seed" --seconds 5 \
                --trace "$t" --smoke
        done
    done
    summarize "$out/results.smoke.json" ;;
  bless)
    for s in 1 2; do
        for w in "${workloads[@]}"; do
            "$bin" --workload "$w" --seed "$s" --bless --rev "$rev" |
                grep '^# blessed'
        done
    done
    "$bin" --workload "${workloads[0]}" --trace 1 --smoke --bless \
        --rev "$rev" | grep '^# blessed' ;;
esac
