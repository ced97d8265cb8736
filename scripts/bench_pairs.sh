#!/usr/bin/env bash
# bench_pairs.sh — interleaved base/change pairs of one benchmark workload,
# the form a timing claim is accepted in (ROADMAP.md).
#
# Usage: scripts/bench_pairs.sh <rev> <workload> [n]
#
# Extracts <rev> with git archive under .bench_build/pairs/base, builds the
# benchmark binary of that tree and of the working tree, and runs n pairs
# (default 10) of `-workload <workload>`, alternating which side goes first.
# It then prints, per end-to-end metric, each side's median and quartiles
# (q1, q3), the change of the medians in percent, in how many pairs the
# working tree was lower (every end-to-end metric is better lower; an exact
# tie wins nothing), and the verdict `gain?`: "yes" when the working tree won
# at least 9 in 10 of the pairs and its median is lower than the base's by
# more than the base's interquartile range, "no" otherwise. Each side's
# failed operations per pair follow, then every FAILED line a run printed,
# with its side and pair, so a late window reads apart from a wrong result.
# The last line is all of that but the FAILED lines as one JSON object —
# workload, base rev, pair count, per metric each side's q1/median/q3, wins
# and gain, and each side's failed operations per pair — for a record to
# quote verbatim.
# Extra benchmark flags go in BENCH_ARGS, e.g.
# BENCH_ARGS="-seed 2". Run it on an otherwise idle machine. It builds into
# .bench_build/ only and leaves bench/ untouched.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <rev> <workload> [n]" >&2
	exit 2
fi
rev=$1 workload=$2 n=${3:-10}
root=$(pwd)
out="$root/.bench_build/pairs"
rm -rf "$out/base"
mkdir -p "$out/base" "$out/tmp"
git archive "$rev" | tar -x -C "$out/base"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C "$out/base/bench" -o "$out/base.bin" .
go build -C "$root/bench" -o "$out/change.bin" .

# run SIDE PAIR appends "SIDE PAIR METRIC VALUE" per printed metric and
# "SIDE PAIR failed N" to the results file, and the run's FAILED lines,
# prefixed with side and pair, to the failures file. Each side runs in its
# own tree.
results="$out/results" failures="$out/failures" summary="$out/summary"
: >"$results"
: >"$failures"
: >"$summary"
run() {
	local dir=$root
	[ "$1" = base ] && dir=$out/base
	# shellcheck disable=SC2086 # BENCH_ARGS is a list of flags
	(cd "$dir" && "$out/$1.bin" -workload "$workload" ${BENCH_ARGS:-}) >"$out/$1.out" || true
	awk -v side="$1" -v pair="$2" '
		$1 ~ /^[a-z_0-9]+$/ && NF >= 3 && $2 ~ /^-?[0-9.]+$/ { print side, pair, $1, $2 }
		/^\{/ { f = $0; sub(/.*"failed":/, "", f); sub(/[^0-9].*/, "", f); failed = f }
		END { print side, pair, "failed", (failed == "" ? "run-failed" : failed) }
	' "$out/$1.out" >>"$results"
	awk -v side="$1" -v pair="$2" '$1 == "FAILED" { sub(/^ *FAILED /, ""); print side, "pair", pair ": " $0 }' \
		"$out/$1.out" >>"$failures"
}
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
	echo "pair $i/$n done" >&2
done

# quantile SIDE METRIC P prints the P-quantile of that side's values,
# interpolating linearly between order statistics.
quantile() {
	awk -v s="$1" -v m="$2" '$1 == s && $3 == m { print $4 }' "$results" | sort -g |
		awk -v p="$3" '{ v[NR] = $1 } END {
			if (NR == 0) { print "nan"; exit }
			h = (NR - 1) * p + 1; lo = int(h)
			print (lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]))
		}'
}

echo "workload $workload, $n interleaved pairs, base $rev vs working tree"
printf "%-14s %14s %14s %14s %14s %14s %14s %9s %7s %6s\n" \
	metric base_q1 base base_q3 change_q1 change change_q3 change% wins gain?
for m in $(awk '$1 == "change" && $3 != "failed" && !seen[$3]++ { print $3 }' "$results"); do
	b1=$(quantile base "$m" 0.25) b=$(quantile base "$m" 0.5) b3=$(quantile base "$m" 0.75)
	c1=$(quantile change "$m" 0.25) c=$(quantile change "$m" 0.5) c3=$(quantile change "$m" 0.75)
	wins=$(awk -v m="$m" '$3 == m { v[$1 " " $2] = $4; p[$2] = 1 }
		END { w = 0; for (i in p) if (("change " i) in v && ("base " i) in v && v["change " i] < v["base " i]) w++; print w }' "$results")
	awk -v m="$m" -v b1="$b1" -v b="$b" -v b3="$b3" -v c1="$c1" -v c="$c" -v c3="$c3" -v w="$wins" -v n="$n" -v summary="$summary" 'BEGIN {
		pct = (b == 0 ? "n/a" : sprintf("%+.1f%%", (c - b) / b * 100))
		gain = (10 * w >= 9 * n && b - c > b3 - b1) ? "yes" : "no"
		printf "%-14s %14s %14s %14s %14s %14s %14s %9s %7s %6s\n", m, b1, b, b3, c1, c, c3, pct, w "/" n, gain
		print m, b1, b, b3, c1, c, c3, w, gain >>summary }'
done
for side in base change; do
	echo "$side failed operations per pair: $(awk -v s="$side" '$1 == s && $3 == "failed" { printf "%s ", $4 }' "$results")"
done
if [ -s "$failures" ]; then
	echo "FAILED lines of the failing runs:"
	cat "$failures"
fi
awk -v wl="$workload" -v rev="$rev" -v n="$n" '
	function num(v) { return v ~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/ ? v + 0 : (v == "nan" ? "null" : "\"" v "\"") }
	function side(q1, med, q3) { return "{\"q1\":" num(q1) ",\"median\":" num(med) ",\"q3\":" num(q3) "}" }
	FILENAME == ARGV[1] {
		ms = ms (ms == "" ? "" : ",") "\"" $1 "\":{\"base\":" side($2, $3, $4) ",\"change\":" side($5, $6, $7) ",\"wins\":" $8 ",\"gain?\":\"" $9 "\"}"
		next
	}
	$3 == "failed" { f[$1] = f[$1] (f[$1] == "" ? "" : ",") num($4) }
	END {
		printf "{\"workload\":\"%s\",\"base\":\"%s\",\"pairs\":%d,\"metrics\":{%s},\"failed\":{\"base\":[%s],\"change\":[%s]}}\n", wl, rev, n, ms, f["base"], f["change"]
	}' "$summary" "$results"
