#!/usr/bin/env bash
# Build the serving binary and the benchmark, then run it.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
#   benchmark/run.sh compare BASE.jsonl CHANGE.jsonl
#
# Each workload named (all four when none is) runs in a process of its
# own, so its `peak_rss_mb` is that workload's and no earlier one's.
#
# Everything a run writes goes under benchmark/out/ (results.jsonl,
# trace-<workload>.json, temporary data directories); build output goes to
# $CARGO_TARGET_DIR, or benchmark/target when that is not set.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"

target="${CARGO_TARGET_DIR:-$bench_dir/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The engine's server is a binary of the root package; the benchmark is a
# package of its own. Both builds are no-ops when nothing changed. Build
# output goes to stderr so the last line of stdout stays the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin streamrel-serve >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

export STREAMREL_BENCH_DIR="$bench_dir"
export STREAMREL_SERVE_BIN="$target/release/streamrel-serve"
STREAMREL_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"
export STREAMREL_CLK_TCK

bin="$target/release/streamrel-benchmark"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi

workloads=()
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --workload)
        workloads+=("${2:-}")
        shift 2 || shift
        ;;
    -h | --help) exec "$bin" --help ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(embedded_sliding wire_fanout durable_active bridged_rollup)
fi

# The benchmark's own guards kill its children and remove its temporary
# directories on every exit it controls, panics included. A signal is the
# one path it cannot see (std has no handlers), so this script forwards
# INT/TERM and then clears whatever the run's state file still lists.
pid=
cleanup() {
    local state="$bench_dir/out/live/$pid.state"
    [ -f "$state" ] || return 0
    while read -r kind what; do
        case "$kind" in
        child) kill -KILL "$what" 2>/dev/null || true ;;
        dir) rm -rf -- "$what" ;;
        esac
    done <"$state"
    rm -f -- "$state"
}
on_signal() {
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    cleanup
    exit 130
}
trap on_signal INT TERM
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" ${args[@]+"${args[@]}"} &
    pid=$!
    status=0
    wait "$pid" || status=$?
    cleanup
    [ "$status" -eq 0 ] || exit "$status"
done
