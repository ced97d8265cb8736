#!/bin/sh
# check.sh — the repo's pre-merge gate: build, vet, the full test suite
# under the race detector (the parallel pace search and the wave-parallel
# executor must stay data-race-free), then a short fuzz smoke over the
# native fuzz targets, a scheduler soak and a churn soak. Set SKIP_FUZZ=1
# to stop after the race tests, FUZZTIME (default 10s) to change the
# per-target fuzz budget, SOAKTIME (default 10s) for the scheduler soak,
# CHURNTIME (default 10s) for the online-admission churn soak, and
# RECALTIME (default 10s) for the closed-loop recalibration soak.
set -eu

FUZZTIME="${FUZZTIME:-10s}"
SOAKTIME="${SOAKTIME:-10s}"
CHURNTIME="${CHURNTIME:-10s}"
RECALTIME="${RECALTIME:-10s}"

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

# The engine takes its configuration through exec.Options and function
# arguments only: an environment read under internal/ would be a knob no
# test pins and no caller can see.
echo "== no environment reads under internal/"
if grep -rnE 'os\.(Getenv|LookupEnv)' internal --include='*.go' | grep -v '_test\.go:'; then
	echo "internal/ must not read the environment; pass an option instead" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

# The repository benchmark is its own module, which ./... does not reach.
echo "== go vet + go test (bench module)"
go vet -C bench ./...
go test -C bench ./...

# Compile-and-run smoke of the two whole-job benchmarks `make profile`
# targets: one planning job of the repository benchmark's plan_tight22
# (PlanJob, the default) and one job of its exec_batch22 (ExecJob: 22
# queries at SF 2, planned outside the timer).
echo "== BenchmarkPlanJob + BenchmarkExecJob smoke (-benchtime 1x)"
go test -run '^$' -bench 'Benchmark(Plan|Exec)Job$' -benchtime 1x -benchmem .

echo "== trace smoke (-experiment sched -trace)"
TRACE_OUT="$(mktemp /tmp/ishare-trace.XXXXXX.json)"
go run ./cmd/ishare -experiment sched -sf 0.02 -trace "$TRACE_OUT" >/dev/null
go run ./cmd/tracecheck "$TRACE_OUT"
rm -f "$TRACE_OUT"

echo "== event-log smoke (-experiment sched -events)"
EVENTS_OUT="$(mktemp /tmp/ishare-events.XXXXXX.jsonl)"
go run ./cmd/ishare -experiment sched -sf 0.02 -events "$EVENTS_OUT" >/dev/null
go run ./cmd/eventcheck -types window.close "$EVENTS_OUT"
rm -f "$EVENTS_OUT"

# Status smoke: serve the run's metrics (JSON and Prometheus text) and the
# live statusz view, and require all three endpoints to answer once the run
# has finished (the process keeps serving after the last window closes).
echo "== status smoke (-serve-metrics/-serve-status)"
go run ./cmd/ishare -experiment sched -sf 0.02 \
	-serve-metrics 127.0.0.1:19090 -serve-status 127.0.0.1:19091 >/dev/null 2>&1 &
SERVE_PID=$!
STATUS_OK=
for _ in $(seq 1 60); do
	if curl -fsS 127.0.0.1:19091/statusz >/dev/null 2>&1; then
		STATUS_OK=1
		break
	fi
	sleep 1
done
[ -n "$STATUS_OK" ] || { echo "statusz never came up" >&2; kill "$SERVE_PID"; exit 1; }
curl -fsS 127.0.0.1:19090/metrics | head -c 1 | grep -q '{'
curl -fsS 127.0.0.1:19090/prometheus | grep -q '^# TYPE '
curl -fsS 127.0.0.1:19091/statusz | grep -q '"window"'
kill "$SERVE_PID"

# Informational benchmark diff: when both the frozen baseline and a current
# bench-json report exist, print the per-benchmark deltas. Never fails the
# gate — CI-runner noise is too high for a hard perf gate.
if [ -f BENCH_PR9.json ] && [ -f BENCH_PR10.json ]; then
	echo "== bench-diff (informational)"
	go run ./cmd/benchdiff BENCH_PR9.json BENCH_PR10.json || true
else
	echo "== bench-diff skipped (run 'make bench-json' to produce BENCH_PR10.json)"
fi

if [ "${SKIP_FUZZ:-}" != "1" ]; then
	echo "== scheduler soak ($SOAKTIME, race)"
	go test ./internal/sched -race -run TestSchedulerSoak -soaktime "$SOAKTIME"

	echo "== churn soak ($CHURNTIME, race)"
	go test ./internal/oracle -race -run TestChurnSoak -churntime "$CHURNTIME"

	echo "== recalibration soak ($RECALTIME, race)"
	go test ./internal/sched -race -run TestRecalibrationSoak -recaltime "$RECALTIME"

	echo "== fuzz smoke ($FUZZTIME per target)"
	go test ./internal/oracle -run '^$' -fuzz FuzzEngineVsOracle -fuzztime "$FUZZTIME"
	go test ./internal/sqlparser -run '^$' -fuzz FuzzParserRoundTrip -fuzztime "$FUZZTIME"
	go test ./internal/sqlparser -run '^$' -fuzz 'FuzzParse$' -fuzztime "$FUZZTIME"
fi

echo "OK"
