#!/usr/bin/env bash
# Bench regression gate: compare freshly-written BENCH_*.json files against
# the baselines committed at HEAD, with per-metric tolerance bands.
#
# Usage: scripts/bench_check.sh [BENCH_file.json ...]
#   (no arguments: every BENCH_*.json tracked at HEAD)
#
# Two kinds of checks:
#   * structural — proof-shaped fields that must hold exactly on any
#     machine: zero torture failures with points in every suite, every
#     claim of every paper experiment held, row conservation,
#     fan-out delivery counts and coalesced socket writes, linear
#     registration cost, a window close
#     whose merge count does not grow with the window's width and a
#     REPLACE commit whose scan does not grow with the table's history. A
#     violation is a correctness regression.
#   * throughput — rates and speedup ratios compared against the
#     committed baseline. CI machines jitter, so the band is wide:
#     a fresh run must retain BENCH_CHECK_TOLERANCE (default 0.25) of
#     the baseline. The gate catches collapses, not noise.
#
# A fresh file carrying "skipped": true is an honest skip (the bench
# detected the host can't run it meaningfully, e.g. too few cores) and is
# exempt from throughput bands; its skip_reason is printed instead.
set -euo pipefail
cd "$(dirname "$0")/.."

TOL="${BENCH_CHECK_TOLERANCE:-0.25}"

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    mapfile -t files < <(git ls-tree --name-only HEAD | grep '^BENCH_.*\.json$')
fi
if [ "${#files[@]}" -eq 0 ]; then
    echo "bench_check: no BENCH_*.json baselines tracked at HEAD" >&2
    exit 1
fi

fail=0
for f in "${files[@]}"; do
    if [ ! -f "$f" ]; then
        echo "FAIL $f: bench did not write a fresh result" >&2
        fail=1
        continue
    fi
    baseline=""
    if git cat-file -e "HEAD:$f" 2>/dev/null; then
        baseline="$(git show "HEAD:$f")"
    fi
    if ! BASELINE_JSON="$baseline" BENCH_TOL="$TOL" python3 - "$f" <<'PY'
import json, os, sys

path = sys.argv[1]
name = os.path.basename(path)
tol = float(os.environ["BENCH_TOL"])
fresh = json.load(open(path))
baseline_raw = os.environ.get("BASELINE_JSON", "")
baseline = json.loads(baseline_raw) if baseline_raw.strip() else None

problems = []

def need(field, want):
    got = fresh.get(field)
    if got != want:
        problems.append(f"{field} = {got!r}, want {want!r}")

# -- structural checks: exact on every machine -----------------------------
if name == "BENCH_torture.json":
    # Every suite of the torture runner held its oracle and exercised
    # something: a suite with no crash ops, chaos points or kills proved
    # nothing.
    suites = fresh.get("suites", {})
    if not suites:
        problems.append("no suites recorded")
    for suite, result in suites.items():
        if result.get("failures") != 0:
            problems.append(f"{suite}: failures = {result.get('failures')!r}, want 0")
        if result.get("points", 0) <= 0:
            problems.append(f"{suite}: points <= 0, the suite exercised nothing")
elif name == "BENCH_experiments.json":
    # The paper's claims, one suite each: every suite ran, claimed
    # something, and every claim held. Its timings are informational.
    suites = fresh.get("suites", {})
    want = ["f1"] + [f"e{i}" for i in range(1, 9)]
    for suite in want:
        if suite not in suites:
            problems.append(f"suite {suite} missing")
        elif not suites[suite].get("claims"):
            problems.append(f"{suite}: no claims, the suite checked nothing")
    for suite, result in suites.items():
        for c in result.get("claims", []):
            if c.get("held") is not True:
                problems.append(
                    f"{suite}/{c.get('name')}: value {c.get('value')} "
                    f"{c.get('op')} bound {c.get('bound')} does not hold"
                )
elif name == "BENCH_federation.json":
    need("rows_conserved", True)
    need("apply_errors", 0)
    need("reconnects", 0)
elif name == "BENCH_fanout.json":
    for entry in fresh.get("sweep", []):
        want = entry["subs"] * fresh["windows"]
        if entry["windows_sent"] != want:
            problems.append(
                f"sweep subs={entry['subs']}: windows_sent "
                f"{entry['windows_sent']}, want {want}"
            )
        # Coalesced writes: a socket's pending copies leave together, so
        # at 100+ members there are at most a quarter as many write(2)
        # calls as window frames sent (a count, not a rate).
        if entry["subs"] >= 100 and entry.get("writes", 0) * 4 > entry["windows_sent"]:
            problems.append(
                f"sweep subs={entry['subs']}: {entry.get('writes')} socket writes "
                f"for {entry['windows_sent']} windows sent, want <= 1/4"
            )
    # Registration must stay linear in members: per-member cost at the
    # largest sweep point within 3x of the cost at 1000 (skipped when
    # the sweep lacks either point).
    by_subs = {e["subs"]: e["register_ms"] / e["subs"] for e in fresh.get("sweep", [])}
    if 1000 in by_subs and max(by_subs) > 1000:
        top = max(by_subs)
        if by_subs[top] > 3 * by_subs[1000]:
            problems.append(
                f"register_ms/subs at {top} subscribers is "
                f"{by_subs[top] / by_subs[1000]:.1f}x the figure at 1000, want <= 3x"
            )
elif name == "BENCH_ingest_parallel.json":
    need("durable", True)
    # Active Tables maintain themselves: with no VACUUM in 20 000 windows
    # of 100 groups, what a REPLACE commit scans (a count that repeats
    # exactly) must not grow with the history, nor what its table holds.
    scanned = fresh.get("replace_scanned_per_window", {})
    if "100" not in scanned or "20000" not in scanned:
        problems.append("replace_scanned_per_window lacks windows 100 and 20000")
    elif not 0 < scanned["20000"] <= 1.1 * scanned["100"]:
        problems.append(
            f"a REPLACE commit scans {scanned['20000']} versions at window 20000, "
            f"want <= 1.1 x the {scanned['100']} at window 100"
        )
    if not 0 < fresh.get("replace_heap_versions_end", 0) <= 3 * 100:
        problems.append(
            f"replace_heap_versions_end = {fresh.get('replace_heap_versions_end')!r}, "
            "want <= 3 x the 100 rows of one window"
        )
elif name == "BENCH_ivm.json":
    if fresh.get("windows_closed", 0) <= 0:
        problems.append("windows_closed <= 0: the bench closed no windows")
    # Constant-time close: what a close merges (key partials added +
    # retracted + rebuilt + slices a first-seen view probed for a leaving
    # key's next stamp, a count that repeats exactly) must not grow with
    # VISIBLE / ADVANCE.
    merges = {e["ratio"]: e["merges_per_close"] for e in fresh.get("sweep", [])}
    if 6 not in merges or 300 not in merges:
        problems.append("sweep lacks merges_per_close at VISIBLE/ADVANCE = 6 and 300")
    elif not 0 < merges[300] <= 1.1 * merges[6]:
        problems.append(
            f"merges_per_close at VISIBLE/ADVANCE = 300 is {merges[300]}, "
            f"want <= 1.1 x the {merges[6]} at 6"
        )
    # A view that emits in ORDER BY key order probes nothing: flat too, and
    # strictly below the first-seen view's count at every ratio.
    ordered = {e["ratio"]: e.get("ordered_merges_per_close") for e in fresh.get("sweep", [])}
    if None in ordered.values() or 6 not in ordered or 300 not in ordered:
        problems.append("sweep lacks ordered_merges_per_close at every ratio")
    else:
        if not 0 < ordered[300] <= 1.1 * ordered[6]:
            problems.append(
                f"ordered_merges_per_close at VISIBLE/ADVANCE = 300 is {ordered[300]}, "
                f"want <= 1.1 x the {ordered[6]} at 6"
            )
        for ratio, n in ordered.items():
            if not n < merges[ratio]:
                problems.append(
                    f"ordered_merges_per_close at VISIBLE/ADVANCE = {ratio} is {n}, "
                    f"want < the unordered {merges[ratio]}"
                )

# -- throughput bands: fresh must retain `tol` of the committed baseline ---
BANDS = {
    "BENCH_ivm.json": ["speedup", "close_speedup", "ivm_tps"],
    "BENCH_federation.json": ["live_windows_per_s", "replay_windows_per_s"],
    "BENCH_ingest_parallel.json": ["speedup"],
}
if fresh.get("skipped"):
    print(f"  skip {name}: {fresh.get('skip_reason', 'skipped by bench')}")
elif baseline is None:
    print(f"  note {name}: no committed baseline yet, structural checks only")
elif baseline.get("skipped"):
    print(f"  note {name}: baseline was an honest skip, structural checks only")
else:
    for metric in BANDS.get(name, []):
        base = baseline.get(metric)
        got = fresh.get(metric)
        if base is None or got is None:
            continue
        floor = base * tol
        if got < floor:
            problems.append(
                f"{metric} = {got:.1f}, below {tol:.0%} of baseline "
                f"{base:.1f} (floor {floor:.1f})"
            )
        else:
            print(f"  ok   {name}: {metric} {got:.1f} vs baseline {base:.1f}")

if problems:
    for p in problems:
        print(f"FAIL {name}: {p}", file=sys.stderr)
    sys.exit(1)
print(f"  pass {name}")
PY
    then
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "bench_check: REGRESSION — see FAIL lines above" >&2
    exit 1
fi
echo "bench_check: all bench results within tolerance"
