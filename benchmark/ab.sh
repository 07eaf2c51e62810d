#!/usr/bin/env bash
# Back-to-back A/B of two revisions, with identical benchmark code.
#
#   benchmark/ab.sh BASE [REV]          REV defaults to HEAD
#
# Both revisions are checked out as local git worktrees under
# benchmark/out/ab/ (no network needed).  This checkout's benchmark/
# directory is copied into both, so the two sides run the same benchmark,
# workloads and references, and each side builds its own library.  Then
# PAIRS pairs are run for every workload, alternating which side goes
# first; pair p runs both sides on seed p.  benchmark/ledger.py prints,
# per (workload, end-to-end metric), both medians and quartiles, the
# fraction of pairs REV won and a verdict (README.md, "A/B").  Exits 1
# if any metric regressed.
#
# Environment: PAIRS (default 10), SECONDS_PER_RUN (default 25).
set -euo pipefail

if (($# < 1)); then
    sed -n '2,/^set/p' "$0" | sed '$d' >&2
    exit 2
fi
cd "$(dirname "$0")/.."
base=$1 rev=${2:-HEAD}
pairs=${PAIRS:-10} seconds=${SECONDS_PER_RUN:-25}
ab=benchmark/out/ab

cleanup() {
    for side in base rev; do
        git worktree remove --force "$ab/$side" 2> /dev/null || true
    done
}
trap cleanup EXIT
cleanup
mkdir -p "$ab"

for side in base rev; do
    ref=$base
    [[ $side == rev ]] && ref=$rev
    git worktree add --detach --force "$ab/$side" "$ref" > /dev/null
    rm -rf "$ab/$side/benchmark"
    tar --exclude=benchmark/out -cf - benchmark | tar -xf - -C "$ab/$side"
    echo "# $side = $(git rev-parse --short "$ref"): building"
    bash "$ab/$side/benchmark/run.sh" --build-only
done

workloads=()
for f in benchmark/workloads/*.exp; do
    workloads+=("$(basename "$f" .exp)")
done

samples=$ab/samples.txt
: > "$samples"
for ((p = 1; p <= pairs; p++)); do
    order=(base rev)
    ((p % 2)) || order=(rev base)
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            if ! bash "$ab/$side/benchmark/run.sh" --workload "$w" \
                    --seed "$p" --seconds "$seconds" --trace 0 \
                    > "$ab/last.txt" ||
                ! tail -n 1 "$ab/last.txt" | grep -q '^{"correct": true'; then
                echo "ab.sh: $side $w seed $p: incorrect result" >&2
                exit 1
            fi
            grep -v '^[#{]' "$ab/last.txt" | sed "s/^/$p:$side /" \
                >> "$samples"
        done
    done
    echo "# pair $p of $pairs done"
done
python3 benchmark/ledger.py ab "$samples" BENCHMARK.json
