#!/usr/bin/env bash
# Bench regression gate: check freshly written BENCH_*.json files against
# the ones committed at HEAD.
#
# Usage: scripts/bench_check.sh [BENCH_file.json ...]
#   (no arguments: every BENCH_*.json tracked at HEAD)
#
# Every file has one layout, written by `streamrel_bench::experiments::record`
# (the experiments and torture runners): `suites.<name>` with `claims`,
# `rates` and `skipped`. Two rules cover them all:
#   * structural — every suite of the committed file is in the fresh one,
#     each suite made at least one claim, and every claim held. A claim
#     checks an answer or compares two numbers of one run, so it holds or
#     fails alike on any machine; a violation is a correctness regression.
#   * band — each rate (a throughput or a speedup; higher is better) must
#     retain BENCH_CHECK_TOLERANCE (default 0.25) of the committed value.
#     CI machines jitter, so the band is wide: it catches collapses, not
#     noise. A suite recorded as skipped, fresh or committed (the host
#     cannot measure it meaningfully, e.g. too few cores), is exempt and
#     its reason is printed instead.
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
fresh = json.load(open(path)).get("suites", {})
raw = os.environ.get("BASELINE_JSON", "")
committed = json.loads(raw).get("suites", {}) if raw.strip() else {}

problems = []
if not fresh:
    problems.append("no suites recorded")
for suite in committed:
    if suite not in fresh:
        problems.append(f"suite {suite} missing")
for suite, result in fresh.items():
    claims = result.get("claims", [])
    if not claims:
        problems.append(f"{suite}: no claims, the suite checked nothing")
    for c in claims:
        if c.get("held") is not True:
            problems.append(
                f"{suite}/{c.get('name')}: {c.get('value')} "
                f"(want {c.get('op')} {c.get('bound')}) does not hold"
            )
    base = committed.get(suite, {})
    skipped = result.get("skipped") or base.get("skipped")
    if skipped:
        print(f"  skip {name} {suite} rates: {skipped}")
        continue
    for rate, got in result.get("rates", {}).items():
        want = base.get("rates", {}).get(rate)
        if want is None or got is None:
            continue
        floor = want * tol
        if got < floor:
            problems.append(
                f"{suite}/{rate} = {got:.1f}, below {tol:.0%} of the committed "
                f"{want:.1f} (floor {floor:.1f})"
            )
        else:
            print(f"  ok   {name} {suite}/{rate}: {got:.1f} vs committed {want:.1f}")

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
