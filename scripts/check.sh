#!/bin/sh
# check.sh — the repo's merge gate, defined here once; CI only calls it.
# Build, a syntax check of scripts/bench_pairs.sh, the environment-read,
# single-owner-optimizer and scheduler-report greps, vet, the full test suite
# under the race detector (the wave-parallel executor, the scheduler's workers
# and the HTTP servers must stay data-race-free), the benchmark module, the
# observability smokes, the deterministic benchmark gate, then the soaks and a
# fuzz smoke through their make targets. Set SKIP_FUZZ=1 to stop before the
# soaks (CI runs them as separate jobs), and FUZZTIME / SOAKTIME / CHURNTIME /
# RECALTIME (default 10s each) to change the per-target fuzz budget and the
# three soak budgets.
set -eu

FUZZTIME="${FUZZTIME:-10s}"
SOAKTIME="${SOAKTIME:-10s}"
CHURNTIME="${CHURNTIME:-10s}"
RECALTIME="${RECALTIME:-10s}"

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

# The interleaved-pairs timing script runs only by hand; keep it parseable.
echo "== bash -n scripts/bench_pairs.sh"
bash -n scripts/bench_pairs.sh

# The engine takes its configuration through exec.Options and function
# arguments only: an environment read under internal/ would be a knob no
# test pins and no caller can see.
echo "== no environment reads under internal/"
if grep -rnE 'os\.(Getenv|LookupEnv)' internal --include='*.go' | grep -v '_test\.go:'; then
	echo "internal/ must not read the environment; pass an option instead" >&2
	exit 1
fi

# The optimizer is single-owner: a cost model and a pace search belong to the
# goroutine that runs them, so its packages start no goroutines, hold no
# atomics or locks, and keep their scratch in state they own, not a sync.Pool.
echo "== single-owner optimizer (no go statements, atomics, locks or pools)"
if grep -rnE '(^|[^[:alnum:]_])go (func|[[:alnum:]_.]+\()|"sync/atomic"|sync\.(RW)?Mutex|sync\.WaitGroup|sync\.Pool' \
	internal/cost internal/pace internal/decompose internal/opt --include='*.go' | grep -v '_test\.go:'; then
	echo "internal/{cost,pace,decompose,opt} must stay single-owner" >&2
	exit 1
fi

# One way out of the scheduler: its accounting loop only records, and the
# per-occasion reports in internal/sched/report.go are the only code there
# that writes a metric, span, decision, event or status.
echo "== scheduler observations leave through report.go only"
if grep -rnE '\.(Emit|Publish|Span|Instant|DecideAt|Counter|Gauge|Histogram)\(|CountWork\(|CountArrangements\(' \
	internal/sched --include='*.go' | grep -v '_test\.go:' | grep -v '^internal/sched/report\.go:'; then
	echo "internal/sched writes observations outside report.go" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

# The repository benchmark is its own module, which ./... does not reach:
# vet and test it here so a change to an internal package cannot silently
# break it.
echo "== go vet + go test (bench module)"
go vet -C bench ./...
go test -C bench ./...

# Compile-and-run smoke of the three whole-job benchmarks `make profile`
# targets: one planning job of the repository benchmark's plan_tight22
# (PlanJob, the default), one job of its exec_batch22 (ExecJob: 22 queries
# at SF 2, planned outside the timer) and one admit+retire graft over
# session_churn's shape (ChurnGraft: 30 windows of history).
echo "== BenchmarkPlanJob + BenchmarkExecJob + BenchmarkChurnGraft smoke (-benchtime 1x)"
go test -run '^$' -bench 'Benchmark((Plan|Exec)Job|ChurnGraft)$' -benchtime 1x -benchmem .

# The observability smokes drive one built binary, so the status smoke can
# stop the very process it started (killing a `go run` wrapper can leave its
# child serving on the ports, and the next run would pass against it).
SMOKE_DIR=.bench_build/smoke
mkdir -p "$SMOKE_DIR"
go build -o "$SMOKE_DIR/ishare" ./cmd/ishare

# The Chrome trace must parse and hold at least one event per phase category.
echo "== trace smoke (-experiment sched -trace)"
"$SMOKE_DIR/ishare" -experiment sched -sf 0.02 -trace "$SMOKE_DIR/trace.json" >/dev/null
go run ./cmd/tracecheck "$SMOKE_DIR/trace.json"

# The structured event log must validate (dense sequence, known schema) and
# contain window closes.
echo "== event-log smoke (-experiment sched -events)"
"$SMOKE_DIR/ishare" -experiment sched -sf 0.02 -events "$SMOKE_DIR/events.jsonl" >/dev/null
go run ./cmd/eventcheck -types window.close "$SMOKE_DIR/events.jsonl"

# Status smoke: serve the run's metrics (JSON and Prometheus text) and the
# live statusz view, and require all three endpoints to answer once the run
# has finished (the process keeps serving after the last window closes).
echo "== status smoke (-serve-metrics/-serve-status)"
"$SMOKE_DIR/ishare" -experiment sched -sf 0.02 \
	-serve-metrics 127.0.0.1:19090 -serve-status 127.0.0.1:19091 >/dev/null 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
STATUS_OK=
for _ in $(seq 1 60); do
	if curl -fsS 127.0.0.1:19091/statusz >/dev/null 2>&1; then
		STATUS_OK=1
		break
	fi
	sleep 1
done
[ -n "$STATUS_OK" ] || { echo "statusz never came up" >&2; exit 1; }
curl -fsS 127.0.0.1:19090/metrics | head -c 1 | grep -q '{'
curl -fsS 127.0.0.1:19090/prometheus | grep -q '^# TYPE '
curl -fsS 127.0.0.1:19091/statusz | grep -q '"window"'
kill "$SERVE_PID" # fails, as it should, if ours died and a stale server answered
trap - EXIT

# The one performance step that can fail: see scripts/bench_gate.sh.
echo "== benchmark gate (total_work exact, memory within bound, timings printed)"
bash scripts/bench_gate.sh

if [ "${SKIP_FUZZ:-}" != "1" ]; then
	echo "== scheduler soak, churn soak, recalibration soak, fuzz smoke"
	make soak SOAKTIME="$SOAKTIME"
	make churn-soak CHURNTIME="$CHURNTIME"
	make recal-soak RECALTIME="$RECALTIME"
	make fuzz FUZZTIME="$FUZZTIME"
fi

echo "OK"
