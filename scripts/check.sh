#!/bin/sh
# check.sh — the repo's merge gate, defined here once; CI only calls it.
# Build, vet of the benchmark module (it compiles bench/ against this tree),
# a syntax check of scripts/bench_pairs.sh and scripts/loc.sh, the
# gofmt check of every Go file, the environment-read,
# single-owner-optimizer, scheduler-report, memo-carry-over,
# operator-identity (no non-test Go file but internal/mqo/payload.go writes
# the rendering literals "scan(", "join{", "agg{" or "project{") and
# registry-refcount greps, vet, the full test suite under the race detector
# (the wave-parallel executor, the scheduler's workers and the HTTP servers
# must stay data-race-free), the benchmark module's tests, the observability
# and EXPLAIN smokes, the deterministic benchmark gate, then the soaks and a
# fuzz smoke through their make targets. Set SKIP_FUZZ=1 to stop before the soaks (CI runs
# them as separate jobs), and FUZZTIME / SOAKTIME / CHURNTIME / RECALTIME
# (default 10s each) to change the per-target fuzz budget and the three
# soak budgets.
set -eu

FUZZTIME="${FUZZTIME:-10s}"
SOAKTIME="${SOAKTIME:-10s}"
CHURNTIME="${CHURNTIME:-10s}"
RECALTIME="${RECALTIME:-10s}"

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

# The repository benchmark is its own module, which ./... does not reach.
# Vet compiles it against this tree, so a change to an internal package that
# breaks the benchmark's build fails here, in seconds; its tests run below.
echo "== go vet (bench module)"
go vet -C bench ./...

# The interleaved-pairs timing script and the line counter run only by
# hand; keep them parseable.
echo "== bash -n scripts/bench_pairs.sh scripts/loc.sh"
bash -n scripts/bench_pairs.sh
bash -n scripts/loc.sh

# Every Go file of the root module and of the benchmark module is
# gofmt-clean. .bench_build/ holds other revisions' checkouts, not this
# tree's source.
echo "== gofmt -l"
UNFORMATTED=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$UNFORMATTED" ]; then
	echo "$UNFORMATTED" >&2
	echo "these files are not gofmt-clean; run gofmt -w on them" >&2
	exit 1
fi

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

# The executor computes, its callers observe: internal/exec returns Work and
# keeps the state execution and grafts read, and writes no observation
# surface itself.
echo "== internal/exec imports no observation surface"
if grep -rnE '"ishare/internal/(trace|metrics|eventlog)"' internal/exec --include='*.go' | grep -v '_test\.go:'; then
	echo "internal/exec must not import internal/{trace,metrics,eventlog}; report from its caller" >&2
	exit 1
fi

# One way out of the scheduler: its accounting loop only records, and the
# per-occasion reports in internal/sched/report.go are the only code there
# that writes a metric, span, decision, event, tracer counter or status.
echo "== scheduler observations leave through report.go only"
if grep -rnE '\.(Emit|Publish|Span|Instant|DecideAt|Counter|Gauge|Histogram|Count)\(' \
	internal/sched --include='*.go' | grep -v '_test\.go:' | grep -v '^internal/sched/report\.go:'; then
	echo "internal/sched writes observations outside report.go" >&2
	exit 1
fi

# One owner for what a plan revision keeps of the cost model: pace.Replan
# alone carries memo entries over (cost.Model.AdoptMemo) along subplan pairs
# (mqo.MatchSubplans), so admission and recalibration cannot drift apart.
echo "== memo carry-over in internal/pace only"
if grep -rnE '(AdoptMemo|MatchSubplans)\(' . --include='*.go' --exclude-dir=.bench_build |
	grep -v '_test\.go:' | grep -v '^\./internal/pace/' |
	grep -vE '^\./internal/(cost/adopt\.go:[0-9]+:func \(m \*Model\) AdoptMemo|mqo/statesig\.go:[0-9]+:func MatchSubplans)\('; then
	echo "AdoptMemo/MatchSubplans called outside internal/pace; re-plan through pace.Replan" >&2
	exit 1
fi

# One rendering of an operator's identity: mqo.Payload.render alone writes an
# operator's structure, and every signature and arrangement key decorates
# that rendering, so a payload field cannot reach one identity and miss
# another.
echo "== operator identity rendered in internal/mqo/payload.go only"
if grep -rnF -e '"scan(' -e '"join{' -e '"agg{' -e '"project{' . --include='*.go' --exclude-dir=.bench_build |
	grep -v '_test\.go:' | grep -v '^\./internal/mqo/payload\.go:'; then
	echo "an operator identity is rendered outside internal/mqo/payload.go; use mqo.Payload.render" >&2
	exit 1
fi

# One lifecycle for shared executor state: the registry alone attaches,
# releases and refcounts arrangements and truth columns, so a refcount that
# changes anywhere else would escape its invariant check (checkHandles).
# .bench_build/ holds the parent checkouts scripts/bench_pairs.sh builds.
echo "== registry refcounts change in internal/exec/arrange.go only"
if grep -rnE 'refcount[[:space:]]*(\+\+|--|[-+*/]?=([^=]|$))|refcount:' . --include='*.go' --exclude-dir=.bench_build |
	grep -v '_test\.go:' | grep -v '^\./internal/exec/arrange\.go:'; then
	echo "a registry refcount changes outside internal/exec/arrange.go" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test (bench module)"
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

# The optimizer's EXPLAIN report must carry the pace search's decision log.
echo "== explain smoke (-explain)"
"$SMOKE_DIR/ishare" -explain Q1,Q6,Q14 -sf 0.02 | grep -q '^pace-search decision log'

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
