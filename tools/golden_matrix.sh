#!/usr/bin/env bash
# Golden matrix: re-run the golden experiments under every worker split
# and observer combination CI checks, and diff each sweep CSV against
# experiments/golden/.  Simulated results must be byte-identical in
# every cell.
#
#   tools/golden_matrix.sh [BUILD_DIR]        (default: build)
#   PDR_AUDIT=1 tools/golden_matrix.sh build  every cell audited too
#
# Prints one line per cell, then every failing cell by name; exits 1 if
# any cell fails and 2 on a usage error.
set -euo pipefail

# One cell per line: experiment, PDR_THREADS, par.workers, observers.
# "-" leaves the setting at its default (PDR_THREADS: all cores;
# par.workers: 1).  kary3cube runs at full size against kary3cube.csv;
# every other experiment runs with PDR_FAST=1 against <exp>.fast.csv.
# PDR_THREADS=1 keeps the sweep pool from claiming the cores, so the
# network workers spin up.  The other paper figures (fig13, fig14,
# fig15, fig16, fig17), bursty (the only golden with MMPP arrivals),
# ablation (equal-priority speculation, 1 and 8 VCs, slow credits,
# the torus), patterns (the transpose, bitrev and shuffle tables) and
# adaptive (west-first, the only routing re-routed on every attempt)
# run at the default split; fig16 is the only golden in
# sim.mode = fixed, and it drives neighbor traffic.
CELLS="
fig18      -  -  -
fig18      1  1  -
fig18      1  2  -
fig18      1  4  -
fig18      1  1  telem
fig18      1  2  telem
fig18      1  4  telem
fig18      1  1  prof
fig18      1  2  prof
fig18      1  4  prof
fig18      1  1  telem+prof
fig18      1  2  telem+prof
fig18      1  4  telem+prof
kary3cube  -  -  -
kary3cube  1  1  -
kary3cube  1  4  -
kary3cube  1  -  telem
kary3cube  1  -  prof
fig13      -  -  -
fig14      -  -  -
fig15      -  -  -
fig16      -  -  -
fig17      -  -  -
bursty     -  -  -
ablation   -  -  -
patterns   -  -  -
adaptive   -  -  -
"

if [[ $# -gt 1 ]]; then
    echo "usage: tools/golden_matrix.sh [BUILD_DIR]" >&2
    exit 2
fi
build=${1:-build}
if [[ ! -x $build/pdr ]]; then
    echo "golden_matrix.sh: no pdr binary in '$build'" >&2
    exit 2
fi
pdr=$(cd "$build" && pwd)/pdr
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cells=0
failed=()
start=$SECONDS
while read -r exp threads workers observers; do
    [[ -z $exp ]] && continue
    cell="$exp threads=$threads workers=$workers observers=$observers"
    cells=$((cells + 1))
    # Each cell sets the knobs that change a sweep itself; only
    # PDR_AUDIT passes through from the caller.
    envs=(-u PDR_FAST -u PDR_THREADS -u PDR_PAR_WORKERS -u PDR_PACKETS
          -u PDR_WARMUP -u PDR_MAX_CYCLES)
    args=(sweep --file "experiments/$exp.exp" --csv "$tmp/cell.csv")
    golden=experiments/golden/$exp.csv
    if [[ $exp != kary3cube ]]; then
        envs+=(PDR_FAST=1)
        golden=experiments/golden/$exp.fast.csv
    fi
    [[ $threads != - ]] && envs+=("PDR_THREADS=$threads")
    [[ $workers != - ]] && args+=("--par.workers=$workers")
    case $observers in
        -) ;;
        telem) args+=(--telem.enable=true --telem.interval=2000) ;;
        prof) args+=(--prof.enable=true) ;;
        telem+prof)
            args+=(--telem.enable=true --telem.interval=2000
                   --prof.enable=true) ;;
        *)
            echo "golden_matrix.sh: unknown observers '$observers'" >&2
            exit 2 ;;
    esac
    if env "${envs[@]}" "$pdr" "${args[@]}" 2> "$tmp/log" > /dev/null &&
        "$pdr" diff "$golden" "$tmp/cell.csv" >> "$tmp/log" 2>&1; then
        echo "ok    $cell"
    else
        echo "FAIL  $cell"
        sed 's/^/      /' "$tmp/log"
        failed+=("$cell")
    fi
    rm -f "$tmp/cell.csv"
done <<< "$CELLS"

echo "golden_matrix: $cells cells, ${#failed[@]} failed," \
     "$((SECONDS - start)) s (PDR_AUDIT=${PDR_AUDIT:-0})"
if [[ ${#failed[@]} -gt 0 ]]; then
    printf 'failed cell: %s\n' "${failed[@]}" >&2
    exit 1
fi
