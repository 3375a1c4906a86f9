#!/usr/bin/env bash
# Alternated pairs of the wire→report benchmark: this checkout against
# another (the parent commit, normally a `git clone` beside it), one
# workload, one seed per pair. Each side builds and runs through its own
# bench/run.sh, and the side that runs first alternates pair by pair, so
# a host that speeds up or slows down during the batch does not favour
# either. It prints every run, then for each end-to-end metric both
# sides' medians and quartiles, the median over pairs of the change's
# relative difference, and the pairs the change won (by the metric's
# "better" direction in BENCHMARK.json).
#
#   bash ci/bench_pairs.sh <parent-checkout> <workload> <pairs> <first-seed> [seconds]
#
# Pair k runs seed first-seed+k on both sides, for seconds (default 6)
# each. Pick seeds the change was not tuned on.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: $0 <parent-checkout> <workload> <pairs> <first-seed> [seconds]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2 pairs=$3 seed0=$4 secs=${5:-6}
change=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# run <side> <checkout> <pair> <seed>: one benchmark run, appended to
# $runs as "side pair seed metric value" lines and echoed as one line.
run() {
	local json
	json=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$4" --seconds "$secs" --trace 0 | tail -n 1)
	echo "$json" | grep -o '"[a-z0-9_]*":{"value":[-0-9.e+]*' |
		sed 's/^"\([a-z0-9_]*\)":{"value":/\1 /' |
		while read -r metric value; do echo "$1 $3 $4 $metric $value"; done >> "$runs"
	printf '%-6s pair %2d seed %d:' "$1" "$3" "$4"
	awk -v s="$1" -v p="$3" '$1 == s && $2 == p { printf " %s=%s", $4, $5 }' "$runs"
	echo
}

for ((k = 0; k < pairs; k++)); do
	seed=$((seed0 + k))
	if ((k % 2 == 0)); then
		run parent "$parent" "$k" "$seed"
		run change "$change" "$k" "$seed"
	else
		run change "$change" "$k" "$seed"
		run parent "$parent" "$k" "$seed"
	fi
done

echo
echo "$workload, $pairs alternated pairs, seeds $seed0-$((seed0 + pairs - 1)), ${secs}s runs"
# The "better" direction of each end-to-end metric, from the spec's
# name / better line pairs.
better=$(awk -F'"' '$2 == "name" { n = $4 } $2 == "better" && n != "" { print n, $4; n = "" }' "$change/BENCHMARK.json")
{
	echo "$better" | sed 's/^/better /'
	cat "$runs"
} | awk '
function sortv(a, n,    i, j, t) { # insertion sort of a[1..n]
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
		a[j+1] = t
	}
}
function q(a, n, p,    h, lo) { # linear-interpolated quantile of sorted a[1..n]
	h = (n - 1) * p + 1
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
$1 == "better" { dir[$2] = $3; next }
{
	if (!($4 in seen)) { seen[$4] = 1; order[++nm] = $4 }
	v[$1, $4, $2] = $5
	if ($2 + 1 > np) np = $2 + 1
}
END {
	printf "%-22s %-32s %-32s %10s %6s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "pair Δ", "wins"
	for (i = 1; i <= nm; i++) {
		m = order[i]
		n = 0; wins = 0
		for (k = 0; k < np; k++) {
			if (!(("parent", m, k) in v) || !(("change", m, k) in v)) continue
			p = v["parent", m, k]; c = v["change", m, k]
			n++; P[n] = p; C[n] = c
			D[n] = p != 0 ? (c - p) / p : 0
			if ((dir[m] == "higher" && c > p) || (dir[m] != "higher" && c < p)) wins++
		}
		if (n == 0) continue
		sortv(P, n); sortv(C, n); sortv(D, n)
		printf "%-22s %-32s %-32s %+9.1f%% %3d/%-3d\n", m,
			sprintf("%.4g [%.4g, %.4g]", q(P, n, .5), q(P, n, .25), q(P, n, .75)),
			sprintf("%.4g [%.4g, %.4g]", q(C, n, .5), q(C, n, .25), q(C, n, .75)),
			100 * q(D, n, .5), wins, n
	}
}'
