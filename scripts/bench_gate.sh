#!/usr/bin/env bash
# bench_gate.sh — the benchmark step of the merge gate (scripts/check.sh):
# one short pass of the repository benchmark's three closed-loop workloads,
# compared with the checked-in baseline scripts/bench_gate.baseline.
#
#   - A failed operation (error, rows unequal to the reference) already makes
#     bench/run.sh exit non-zero, which fails the gate.
#   - total_work repeats exactly for a seed and is what the paper reports, so
#     it must equal the baseline to the digit: any difference means a plan or
#     an executed pace changed. If that is intended, regenerate the baseline.
#   - alloc_mb and heap_live_mb repeat within a fraction of a percent on one
#     toolchain, so they may not exceed the baseline by more than the bound
#     BENCHMARK.json gives them. They are properties of the code and the Go
#     toolchain together: against a baseline recorded with another toolchain
#     (its first line) they are printed, not gated.
#   - Timings (setup_s, op_ms_p50, cpu_s) are printed and never gated: a
#     shared runner repeats them within 4-14 % at best (bench/README.md), so
#     a gate on them would be either blind or flaky.
#   - sched_updates10 stays out: its windows are anchored to the wall clock,
#     so a 2-second pass measures the runner, and its late-window failure
#     rule would fail the gate on a slow box rather than on a bad change.
#
# Usage: scripts/bench_gate.sh          compare with the baseline
#        scripts/bench_gate.sh -update  rewrite the baseline (an intended
#                                       plan, pace or memory change only)
set -euo pipefail
cd "$(dirname "$0")/.."
baseline=scripts/bench_gate.baseline
measured=.bench_build/gate.measured
mkdir -p .bench_build

: >"$measured"
for w in plan_tight22 exec_batch22 session_churn; do
	bash bench/run.sh -seconds 2 -workload "$w" | grep -v '^{' | tee .bench_build/gate.out
	[ -s "$measured" ] || awk '$1 == "env:" { print "#", $(NF-1), $NF }' .bench_build/gate.out >"$measured"
	awk -v w="$w" '$1 ~ /^(total_work|alloc_mb|heap_live_mb)$/ { print w, $1, $2 }' .bench_build/gate.out >>"$measured"
done

if [ "${1:-}" = "-update" ]; then
	cp "$measured" "$baseline"
	echo "wrote $baseline"
	exit 0
fi

# bound METRIC prints the metric's regression bound from BENCHMARK.json.
bound() {
	awk -v m="\"$1\"" '$0 ~ "\"name\": " m { f = 1 } f && /"bound"/ { gsub(/[^0-9.]/, "", $2); print $2; exit }' BENCHMARK.json
}

# compare BASELINE checks the measured values against it, one verdict per line.
compare() {
	awk -v alloc_mb="$(bound alloc_mb)" -v heap_live_mb="$(bound heap_live_mb)" '
		BEGIN { lim["alloc_mb"] = alloc_mb; lim["heap_live_mb"] = heap_live_mb
			if (alloc_mb <= 0 || heap_live_mb <= 0) { print "no bound in BENCHMARK.json"; bad = 1; exit } }
		$1 == "#" { if (NR == FNR) recorded = $2 " " $3; else same = ($2 " " $3 == recorded); next }
		NR == FNR { base[$1 " " $2] = $3; next }
		{
			k = $1 " " $2; seen[k] = 1; verdict = "ok"
			if (!(k in base)) verdict = "FAIL: not in the baseline"
			else if ($2 == "total_work") { if ($3 "" != base[k] "") verdict = "FAIL: must equal the baseline exactly" }
			else if (!same) verdict = "not gated (baseline recorded with " recorded ")"
			else if ($3 > base[k] * (1 + lim[$2])) verdict = "FAIL: worse by more than " lim[$2]
			printf "%-14s %-13s %16s  baseline %16s  %s\n", $1, $2, $3, base[k], verdict
			if (verdict ~ /^FAIL/) bad = 1
		}
		END { for (k in base) if (!(k in seen)) { print k, "FAIL: not measured"; bad = 1 }; exit bad }
	' "$1" "$measured"
}

compare "$baseline" || { echo "benchmark gate failed (scripts/bench_gate.sh -update if the change is intended)" >&2; exit 1; }

# The gate checks itself: with one digit of one baseline total_work altered
# it must fail, so it cannot rot into an informational step.
awk '$2 == "total_work" && !done { done = 1; n = length($3) - 5
	$3 = substr($3, 1, n - 1) ((substr($3, n, 1) + 1) % 10) substr($3, n + 1) } { print }' "$baseline" >.bench_build/gate.perturbed
if compare .bench_build/gate.perturbed >/dev/null; then
	echo "benchmark gate self-test: a perturbed total_work passed" >&2
	exit 1
fi
echo "benchmark gate OK (and fails on a perturbed baseline)"
