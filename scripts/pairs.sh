#!/usr/bin/env bash
# Runs interleaved pairs of the benchmark on two checkouts and prints, for
# every end-to-end metric, each side's median and quartiles and how many
# pairs the change won: the rule a performance claim is judged by
# (at least nine tenths of the pairs won, ties counting for neither, and
# the medians further apart than the parent's interquartile range).
#
#   scripts/pairs.sh <parent checkout> <workload> [pairs] [seconds]
#
# The change is the checkout this script belongs to. Each run is
# `bash bench/run.sh -workload <workload> -seconds <seconds>` (18 by
# default, as BENCHMARK.json asks) in its own checkout; odd pairs run the
# parent first, even pairs the change. Every run's result line is kept
# under .bench_build/pairs/ of this checkout.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 <parent checkout> <workload> [pairs] [seconds]" >&2
	exit 2
fi
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload="$2" pairs="${3:-10}" seconds="${4:-18}"
out="$change/.bench_build/pairs/$workload"
rm -rf "$out"
mkdir -p "$out"

# run <side> <checkout> <pair>: one benchmark run, its result line kept.
run() {
	if ! bash "$2/bench/run.sh" -workload "$workload" -seconds "$seconds" >"$out/$1.$3.log" 2>&1; then
		echo "pairs: $1 run $3 failed; see $out/$1.$3.log" >&2
		exit 1
	fi
	tail -n 1 "$out/$1.$3.log" >"$out/$1.$3.json"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
	echo "pairs: $i of $pairs done" >&2
done

# One "side pair metric value" row per metric per run, plus the failure
# share as a metric of its own.
rows() {
	for f in "$out"/*.json; do
		b="$(basename "$f" .json)"
		side="${b%.*}" pair="${b#*.}"
		tr -d ' \n' <"$f" | grep -o '"[a-z0-9_]*":{"value":[-0-9.eE+]*' |
			sed 's/^"\([a-z0-9_]*\)":{"value":\(.*\)$/\1 \2/' |
			while read -r name value; do echo "$side $pair $name $value"; done
		attempted="$(grep -o '"attempted":[0-9]*' "$f" | cut -d: -f2)"
		failed="$(grep -o '"failed":[0-9]*' "$f" | cut -d: -f2)"
		echo "$side $pair failed_share $(awk -v a="$attempted" -v f="$failed" 'BEGIN { print (a > 0 ? f / a : 0) }')"
	done
}

# The direction of each metric, from BENCHMARK.json.
better="$(awk -F'"' '/"name":/ { n = $4 } /"better":/ { print n, $4 }' "$change/BENCHMARK.json")"

{
	echo "$better" | sed 's/^/better /'
	echo "better failed_share lower"
	rows
} | awk -v pairs="$pairs" '
function sort(a, n,   i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
# q returns the p-quantile of the sorted a[1..n], linearly interpolated.
function q(a, n, p,   h, lo) {
	h = (n - 1) * p + 1
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
$1 == "better" { if (!($2 in dir)) order[++no] = $2; dir[$2] = $3; next }
{ v[$1, $2, $3] = $4; names[$3] = 1 }
END {
	printf "%-24s %-6s %32s %32s %6s %8s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "delta"
	for (k = 1; k <= no; k++) {
		m = order[k]
		if (!(m in names)) continue
		np = nc = wins = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("parent", i, m) in v) || !(("change", i, m) in v)) continue
			p[++np] = v["parent", i, m]
			c[++nc] = v["change", i, m]
			d = v["change", i, m] - v["parent", i, m]
			if ((dir[m] == "lower" && d < 0) || (dir[m] == "higher" && d > 0)) wins++
			line[m] = line[m] sprintf(" %.6g→%.6g", v["parent", i, m], v["change", i, m])
		}
		if (np == 0) continue
		sort(p, np); sort(c, nc)
		pm = q(p, np, 0.5); cm = q(c, nc, 0.5); iqr = q(p, np, 0.75) - q(p, np, 0.25)
		gain = ""
		if (wins * 10 >= np * 9 && ((dir[m] == "lower" && pm - cm > iqr) || (dir[m] == "higher" && cm - pm > iqr))) gain = "  gain"
		printf "%-24s %-6s %12.4g [%8.4g, %8.4g] %12.4g [%8.4g, %8.4g] %3d/%-2d %+7.1f%%%s\n", m, dir[m],
			pm, q(p, np, 0.25), q(p, np, 0.75), cm, q(c, nc, 0.25), q(c, nc, 0.75), wins, np,
			(pm != 0 ? 100 * (cm - pm) / pm : 0), gain
	}
	print ""
	print "pairs (parent→change, in pair order):"
	for (k = 1; k <= no; k++) if (order[k] in line) print "  " order[k] ":" line[order[k]]
}'
