GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet bench profile check fuzz oracle soak churn-soak recal-soak
SOAKTIME ?= 30s
CHURNTIME ?= 30s
RECALTIME ?= 30s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the wave-parallel runner
# and the scheduler's workers are exercised by their equivalence tests.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the repository benchmark: four whole-job workloads, every
# end-to-end metric printed by name (bench/README.md). `bash bench/run.sh
# -agree` runs two sets and checks them against each metric's bound.
bench:
	bash bench/run.sh

# profile runs one whole-job benchmark on one CPU and leaves its CPU and
# allocation profiles, and the test binary pprof needs to symbolize them,
# under .bench_build/ (git-ignored). PROFILE_BENCH picks the job: PlanJob
# (default) is one planning job over the 22 TPC-H queries, the operation of
# the repository benchmark's optimizer-bound workload; ExecJob is the
# executor's share of one job of its executor-bound workload (NewRunner +
# Run at SF 2, planned outside the timer). Read them with `go tool pprof
# -top .bench_build/ishare.test .bench_build/planjob.cpu.pprof` (add
# -sample_index=alloc_space for the allocation profile; the files are named
# after the lower-cased PROFILE_BENCH). PlanJob's inclusive top five since
# the greedy stopped costing candidates that cannot score (PROFILE_TIME=60x,
# ≈ 46 ms/job, 2 vCPUs): cost.(*SimPlan).run ≈ 52 % (stepJoin ≈ 28 %,
# stepAgg ≈ 14 %; math.Exp ≈ 19 % and log1p ≈ 4 % inside them),
# decompose.(*Decomposer).Candidates ≈ 12 % (almost all of it its local
# problems' simulations), runtime.mallocgc ≈ 11 % (memo slab growth, plans
# compiled by decompose), the memo's map probe + insert ≈ 8 %,
# cost.(*Model).wire ≈ 6 % (arena reset ≈ 1.5 %); EvaluateDelta's own loop
# is down to ≈ 4 % self and the GC write barrier to ≈ 4 %. ExecJob's
# inclusive top five since delta logs are segmented (PROFILE_TIME=10x,
# ≈ 2.3 s/job, 461 MB/job against 569 with a one-slice log, 2 vCPUs):
# joinExec.runPhase ≈ 60 % (joinArr.apply ≈ 26 % with find ≈ 15 % inside
# it, addCand ≈ 9 %), aggExec.process ≈ 19 %, the GC's background mark
# ≈ 12 %, vec.(*Eval).Values ≈ 11 %, runtime.mallocgc ≈ 9 %. By bytes, row
# arenas lead (40 %), then join entries (15 %) and hash-table growth (9 %);
# log appends fell from 23 % to 5 %. ChurnGraft is admission's executor
# cost: one Session.Admit plus Retire of the same query over a dashboard
# session's 30 windows of history. Its inclusive top five since scans read
# their markers' outcomes from truth columns (PROFILE_TIME=100x, ≈ 25 ms and
# 5.7 MB per iteration against 33–40 ms re-evaluating every predicate in
# replay, 2 vCPUs): exec.(*Runner).Graft ≈ 71 %, nearly all of it replaying
# the rebuilt clicks scan and the subplans that must replay;
# aggExec.process ≈ 36 % (the MIN/MAX multiset's ordset.Add ≈ 19 %) now
# leads; scanExec.process ≈ 26 % (applyTruths ≈ 17 %, of which
# vec.(*Eval).Truths ≈ 10 % — the admitted query's new predicate over the
# history, once, and the set-up windows' fresh rows — against 48 % and
# 34 % before); runtime.mallocgc ≈ 18 %; buffer.(*Log).Append ≈ 9 % of CPU
# and 52 % of the bytes, the one copy of each replayed output tuple. The
# optimizer's warm re-plan is ≈ 8 %, and the 30 set-up windows ≈ 9 %.
PROFILE_BENCH ?= PlanJob
PROFILE_TIME ?= 10x
PROFILE_OUT = .bench_build/$(shell echo $(PROFILE_BENCH) | tr A-Z a-z)
profile:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'Benchmark$(PROFILE_BENCH)$$' -benchtime $(PROFILE_TIME) -cpu 1 -benchmem \
		-o .bench_build/ishare.test \
		-cpuprofile $(PROFILE_OUT).cpu.pprof -memprofile $(PROFILE_OUT).alloc.pprof

# check is the merge gate; CI runs it with SKIP_FUZZ=1 and the soak and fuzz
# targets below as separate jobs.
check:
	./scripts/check.sh

# fuzz runs each native fuzz target for FUZZTIME (default 30s). Crashers are
# minimized by the go tool and land under testdata/fuzz/ as new corpus seeds.
fuzz:
	$(GO) test ./internal/oracle -run '^$$' -fuzz FuzzEngineVsOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParserRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME)

# soak fuzzes the scheduler runtime for SOAKTIME (default 30s) of wall
# clock under the race detector: random workloads, pace vectors, window
# splits, worker counts and injected slowdowns, each scenario checked for
# byte-identical reruns and oracle-matching results. Scenario clocks are
# virtual; SOAKTIME only bounds how many scenarios run.
soak:
	$(GO) test ./internal/sched -race -run TestSchedulerSoak -soaktime $(SOAKTIME) -v

# churn-soak fuzzes online admission for CHURNTIME (default 30s) of wall
# clock under the race detector: random workloads carrying random
# admit/retire schedules, each driven through the graft path with state
# transplant on and off and checked against the naive oracle after every
# window, with a byte-identical final work report required against a
# from-scratch build of the final plan.
churn-soak:
	$(GO) test ./internal/oracle -race -run TestChurnSoak -churntime $(CHURNTIME) -v

# recal-soak fuzzes the closed cost loop for RECALTIME (default 30s) of wall
# clock under the race detector: random workloads, pace vectors, injected
# slowdowns and recalibration policies, each scenario required to re-run
# byte-identically and to match the oracle no matter how often the paces
# were re-searched mid-run.
recal-soak:
	$(GO) test ./internal/sched -race -run TestRecalibrationSoak -recaltime $(RECALTIME) -v

# oracle runs the full (non -short) differential suite: hundreds of seeded
# workloads, each checked under batch, random pace vectors, Workers 1 and 4,
# and three decomposed builds against the naive reference evaluator.
oracle:
	$(GO) test ./internal/oracle -run 'TestDifferential|TestInjectedBugCaught|TestShrunkSeeds' -v
