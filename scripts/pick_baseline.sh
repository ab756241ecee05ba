#!/usr/bin/env bash
# pick_baseline.sh — print the committed bfsperf report CI compares against:
# the BENCH_*.json with the greatest recorded "created_unix" (the newest
# report, whatever its file name sorts as). Prints nothing when no report is
# committed. A visible warning goes to stderr when the pick was not recorded
# at the parent commit, i.e. the change under test has no true baseline.
set -euo pipefail

field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([0-9a-f]*\)\"\{0,1\}.*/\1/p" "$2" | head -n 1; }

best="" best_ts=0
for f in BENCH_*.json; do
	[ -e "$f" ] || continue
	ts=$(field created_unix "$f")
	if [ -n "$ts" ] && [ "$ts" -gt "$best_ts" ]; then
		best=$f best_ts=$ts
	fi
done
[ -n "$best" ] || exit 0

parent=$(git rev-parse HEAD~1 2>/dev/null || true)
sha=$(field git_sha "$best")
if [ -z "$sha" ] || [ "${parent#"$sha"}" = "$parent" ]; then
	echo "::warning::no committed BENCH_*.json was recorded at HEAD~1 (${parent:0:12}); comparing against the newest report $best (sha ${sha:-unknown})" >&2
fi
echo "$best"
