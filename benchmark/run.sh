#!/usr/bin/env bash
# The X-Map benchmark: build in release, run, check outputs, print every metric.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#   benchmark/run.sh --compare A.json B.json
#
# Each workload runs in a process of its own so that peak_rss_mb is that
# workload's. The last line of standard output is the workload's result as one
# JSON object; the full result is written to benchmark/out/. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

workload=all
args=()
while (($#)); do
    case "$1" in
    --workload)
        workload="${2:?--workload needs a name}"
        shift 2
        ;;
    --trace)
        # `--trace` alone means `--trace 1`.
        if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
            args+=(--trace "$2")
            shift 2
        else
            args+=(--trace 1)
            shift
        fi
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/xmap-benchmark"

if [[ "${args[0]:-}" == --compare ]]; then
    exec "$bin" "${args[@]}"
fi

XMAP_BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
XMAP_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export XMAP_BENCH_GIT_REV XMAP_BENCH_RUSTC

if [[ "$workload" == all ]]; then
    workloads=(serve_ib serve_ub ingest_mix lifecycle)
else
    workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --out-dir "$here/out" ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"
