#!/usr/bin/env bash
# bench_pairs.sh — interleaved base/change pairs of one benchmark workload,
# the form a timing claim is accepted in (ROADMAP.md).
#
# Usage: scripts/bench_pairs.sh <rev> <workload> [n]
#
# Extracts <rev> with git archive under .bench_build/pairs/base, builds the
# benchmark binary of that tree and of the working tree, and runs n pairs
# (default 10) of `-workload <workload>`, alternating which side goes first.
# It then prints, per end-to-end metric, the median of each side, the change
# in percent, and in how many pairs the working tree was lower (every
# end-to-end metric is better lower; an exact tie wins nothing), followed by
# each side's failed operations. Extra benchmark flags go in BENCH_ARGS, e.g.
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
# "SIDE PAIR failed N" to the results file. Each side runs in its own tree.
results="$out/results"
: >"$results"
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

# median SIDE METRIC prints the median of that side's values.
median() {
	awk -v s="$1" -v m="$2" '$1 == s && $3 == m { print $4 }' "$results" | sort -g |
		awk '{ v[NR] = $1 } END { if (NR == 0) print "nan"; else if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

echo "workload $workload, $n interleaved pairs, base $rev vs working tree"
printf "%-14s %16s %16s %9s %7s\n" metric base change change% wins
for m in $(awk '$1 == "change" && $3 != "failed" && !seen[$3]++ { print $3 }' "$results"); do
	b=$(median base "$m")
	c=$(median change "$m")
	wins=$(awk -v m="$m" '$3 == m { v[$1 " " $2] = $4; p[$2] = 1 }
		END { w = 0; for (i in p) if (("change " i) in v && ("base " i) in v && v["change " i] < v["base " i]) w++; print w }' "$results")
	awk -v m="$m" -v b="$b" -v c="$c" -v w="$wins" -v n="$n" 'BEGIN {
		pct = (b == 0 ? "n/a" : sprintf("%+.1f%%", (c - b) / b * 100))
		printf "%-14s %16s %16s %9s %7s\n", m, b, c, pct, w "/" n }'
done
for side in base change; do
	echo "$side failed operations per pair: $(awk -v s="$side" '$1 == s && $3 == "failed" { printf "%s ", $4 }' "$results")"
done
