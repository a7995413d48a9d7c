#!/usr/bin/env bash
# The three size numbers ROADMAP asks every PR to track: workspace
# non-test Rust lines, ordered locks, and independently settable
# options.
#
# Usage: scripts/size_report.sh [--check] [file.rs ...]
#
# Non-test lines of a source file are the lines before its first
# top-level `#[cfg(test)]` (every test module in this workspace sits at
# the end of its file); `tests/`, `benches/` and `examples/` are not
# counted at all. The lock count is read from the declared order,
# `crates/check/src/lock_order.rs`: one total order, so it also bounds
# the pairs the lock witness checks. Options are the `pub` fields of
# `DbOptions`, `ServerOptions` and `BridgeOptions`.
#
# With file arguments, also prints each named file's non-test lines and
# their sum, so a PR can quote "these files went from A to B".
#
# With --check, the three numbers are also compared against
# scripts/size_baseline.txt (one `<number> <label>` line each) and the
# script fails if any went up: like lint.allow, the baseline can only
# shrink. A PR that lowers a number commits the lower baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi

non_test_lines() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

crate_lines() {
    local total=0 f
    while IFS= read -r f; do
        total=$((total + $(non_test_lines "$f")))
    done < <(find "$1/src" -name '*.rs' | sort)
    echo "$total"
}

total=0
printf '%-28s %8s\n' "crate" "lines"
for dir in . crates/* shims/*; do
    [ -d "$dir/src" ] || continue
    n=$(crate_lines "$dir")
    total=$((total + n))
    printf '%-28s %8d\n' "${dir#./}" "$n"
done
printf '%-28s %8d\n' "workspace non-test total" "$total"

if [ "$#" -gt 0 ]; then
    sum=0
    for f in "$@"; do
        n=$(non_test_lines "$f")
        sum=$((sum + n))
        printf '%-44s %8d\n' "$f" "$n"
    done
    printf '%-44s %8d\n' "named files total" "$sum"
fi

locks=$(awk '/static GLOBAL_LOCK_ORDER:/ { on = 1; next } on && /^\];/ { exit } on && /^    "/ { n++ } END { print n + 0 }' crates/check/src/lock_order.rs)
printf '%-28s %8d\n' "named locks" "$locks"

option_fields() {
    awk -v decl="pub struct $2 {" '
        $0 == decl { on = 1; next }
        on && /^}/ { exit }
        on && /^    pub [a-z_]+:/ { n++ }
        END { print n + 0 }' "$1"
}
options=0
while read -r file name; do
    options=$((options + $(option_fields "$file" "$name")))
done <<'STRUCTS'
crates/core/src/options.rs DbOptions
crates/net/src/server.rs ServerOptions
crates/net/src/bridge.rs BridgeOptions
STRUCTS
printf '%-28s %8d\n' "settable options" "$options"

if [ "$check" -eq 1 ]; then
    failed=0
    while read -r allowed label; do
        case "$label" in
            "workspace non-test total") now=$total ;;
            "named locks") now=$locks ;;
            "settable options") now=$options ;;
            *) echo "size_baseline.txt: unknown line \`$allowed $label\`" >&2; exit 2 ;;
        esac
        if [ "$now" -gt "$allowed" ]; then
            echo "size check: $label went up: $allowed -> $now" >&2
            failed=1
        fi
    done < scripts/size_baseline.txt
    exit "$failed"
fi
