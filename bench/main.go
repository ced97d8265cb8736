// Command bench is the repository's benchmark: four whole-job workloads over
// the iShare engine, measured end to end with tracing off and, in a separate
// traced run, layer by layer from outside the engine. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef mirrors one metric of BENCHMARK.json; metrics_test.go keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"total_work", "work_units", "lower", 0.08},
	{"alloc_mb", "MB", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.12},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a timed region (or the set-up gate) did.
type outcome struct {
	// opMs holds the latency of every principal operation, in ms.
	opMs []float64
	// attempted and failed count operations; an operation fails when it
	// errors, returns results unequal to the reference, or — open loop —
	// finishes too late.
	attempted, failed int
	// totalWork is the modeled work executed (the paper's metric).
	totalWork int64
	// failures explains the first few failed operations.
	failures []string
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.totalWork += p.totalWork
	for _, f := range p.failures {
		if len(o.failures) < 5 {
			o.failures = append(o.failures, f)
		}
	}
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds everything that precedes the timed region from the
	// seed: data, catalog, reference results, the correctness gate.
	setup(seed int64) error
	// run is the timed region. With a nil recorder it drives the engine
	// as a caller would; with a recorder it drives the same inputs through
	// the staged pipeline, one span per call into a layer.
	run(rec *recorder, lay layers) (*outcome, error)
	// probes measures layers in isolation (traced runs only).
	probes(rec *recorder, lay layers) error
	// retained returns the engine objects the last run left behind — its
	// executor, scheduler or session — so that the live heap can be
	// measured while they are still reachable.
	retained() interface{}
}

type workloadDef struct {
	name, loop, op, why string
	// build sizes the workload for a nominal run length; reduced selects
	// the shorter operation count traced runs use.
	build func(seconds int, reduced bool) workload
}

// baseSeconds is the run length the frozen operation counts are stated for;
// other lengths scale the counts, never a clock, so counts repeat exactly.
const baseSeconds = 18

func scaled(count, seconds, min int) int {
	n := (count*seconds + baseSeconds/2) / baseSeconds
	if n < min {
		n = min
	}
	return n
}

var workloads = []workloadDef{
	{
		name: "plan_tight22", loop: "closed loop, 1 client", op: "one whole job",
		why: "optimizer-bound: 22 TPC-H queries over 1.8k rows, a distinct constraint draw per job; cost+pace+decompose do the work, exec almost none",
		build: func(seconds int, reduced bool) workload {
			return &tpchJobs{sf: checkSF, jobs: pick(reduced, 4, 4*scaled(4, seconds, 1)), distinct: true}
		},
	},
	{
		name: "exec_batch22", loop: "closed loop, 1 client", op: "one whole job",
		why: "executor-bound: the same 22 queries and pipeline over 177k insert-only rows, one constraint draw; exec/vec/hashtab/buffer do the work",
		build: func(seconds int, reduced bool) workload {
			return &tpchJobs{sf: 2, jobs: pick(reduced, 2, scaled(4, seconds, 3))}
		},
	},
	{
		name: "sched_updates10", loop: "open loop, one trigger per window on the wall clock", op: "trigger due to results final",
		why: "clock-driven: 10 overlapping queries over a stream with 20% updates; the only workload with sched, retractions and wall-clock trigger latency",
		build: func(seconds int, reduced bool) workload {
			// The per-window volume is frozen at 1/72 of SF 1: a shorter
			// run takes the first windows of that stream, a longer one a
			// proportionally larger stream.
			const frozen = 72
			windows := scaled(frozen, seconds, 12)
			sf, cut := 1.0, frozen
			if windows > frozen {
				sf, cut = float64(windows)/frozen, windows
			}
			return &schedUpdates{sf: sf, windows: pick(reduced, windows/2, windows), fullWindows: cut, window: 250 * time.Millisecond, reduced: reduced}
		},
	},
	{
		name: "session_churn", loop: "closed loop, 1 client", op: "Session.Step",
		why: "live admission through the public facade: warm-started pace search, graft, state transplant and catch-up replay as queries come and go",
		build: func(seconds int, reduced bool) workload {
			return &sessionChurn{windows: pick(reduced, 12, churnEvery*scaled(30, seconds, 6)), rows: 10000, live: 12}
		},
	},
}

func pick(reduced bool, short, full int) int {
	if reduced {
		return short
	}
	return full
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	wall            time.Time
	cpu             float64 // user+sys seconds
	mem             runtime.MemStats
	gcCPU, totalCPU float64
}

func snapshot() usage {
	var u usage
	u.wall = time.Now()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	runtime.ReadMemStats(&u.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU, u.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return u
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

const mb = 1 << 20

// setupReps is how often set-up runs; setup_s is the median.
const setupReps = 3

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(def workloadDef, seed int64, seconds int) (*result, error) {
	w := def.build(seconds, false)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	before := snapshot()
	out, err := w.run(nil, nil)
	if err != nil {
		return nil, err
	}
	after := snapshot()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(w.retained())

	fmt.Printf("workload %s seed %d: %s; operation = %s\n", def.name, seed, def.loop, def.op)
	fmt.Printf("  set-up %d times, timed region %.1f s wall, %d operations attempted, %d failed, peak RSS %.0f MB\n",
		setupReps, after.wall.Sub(before.wall).Seconds(), out.attempted, out.failed, peakRSSMB())
	for _, f := range out.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	q1, q3 := quartiles(out.opMs)
	fmt.Printf("  op_ms quartiles %.3f to %.3f, max %.3f (n=%d)\n", q1, q3, maxOf(out.opMs), len(out.opMs))
	if p, ok := percentile(out.opMs, 95); ok {
		fmt.Printf("  op_ms p95 %.3f\n", p)
	} else {
		fmt.Printf("  op_ms p95 omitted: fewer than %d samples beyond it\n", minBeyond)
	}
	values := map[string]float64{
		"setup_s":      median(setups),
		"op_ms_p50":    median(out.opMs),
		"cpu_s":        after.cpu - before.cpu,
		"total_work":   float64(out.totalWork),
		"alloc_mb":     float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / mb,
		"heap_live_mb": float64(live.HeapAlloc) / mb,
	}
	samples := map[string]int{"setup_s": len(setups), "op_ms_p50": len(out.opMs)}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{values[d.Name], d.Unit}
		n := ""
		if c, ok := samples[d.Name]; ok {
			n = fmt.Sprintf(" (median of n=%d)", c)
		}
		fmt.Printf("  %-12s %14.4f %s%s\n", d.Name, values[d.Name], d.Unit, n)
	}
	return res, nil
}

// runTraced measures one workload's layers: an untraced reduced run as the
// baseline, the same run through the staged pipeline with spans, then the
// isolated probes.
func runTraced(def workloadDef, seed int64, seconds int, outDir string) (*result, error) {
	w := def.build(seconds, true)
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	b0 := snapshot()
	base, err := w.run(nil, nil)
	if err != nil {
		return nil, err
	}
	b1 := snapshot()

	rec, lay := newRecorder(), newLayers()
	runtime.GC()
	t0 := snapshot()
	out, err := w.run(rec, lay)
	if err != nil {
		return nil, err
	}
	t1 := snapshot()
	if err := w.probes(rec, lay); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	vals := lay.finish(len(out.opMs), out.totalWork)
	vals["runtime.gc_cpu_frac"] = ratio(t1.gcCPU-t0.gcCPU, t1.totalCPU-t0.totalCPU)
	vals["runtime.gc_cycles"] = float64(t1.mem.NumGC - t0.mem.NumGC)
	vals["runtime.mallocs"] = float64(t1.mem.Mallocs - t0.mem.Mallocs)
	vals["runtime.heap_live_mb_end"] = float64(t1.mem.HeapAlloc) / mb
	vals["runtime.peak_rss_mb"] = peakRSSMB()
	perWork := func(a, b usage, work int64) float64 { return ratio(b.cpu-a.cpu, float64(work)) }
	vals["trace.overhead_frac"] = ratio(perWork(t0, t1, out.totalWork), perWork(b0, b1, base.totalWork)) - 1
	byLayer, total := rec.selfTimes(inJob)
	for l, d := range byLayer {
		vals["layer."+l+"_frac"] = ratio(float64(d), float64(total))
	}

	fmt.Printf("workload %s seed %d traced: %d operations through the staged pipeline, %d spans\n",
		def.name, seed, len(out.opMs), len(rec.spans))
	for _, f := range out.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	rec.writeLayerTable(os.Stdout)
	path, err := rec.writeChrome(outDir, def.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
		fmt.Printf("  %-32s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	return res, nil
}

// runChild runs one workload in its own process and returns its result.
func runChild(name string, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace="+t, "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// runSet runs every selected workload, each in a child process, in the
// given order.
func runSet(names []string, seed int64, seconds int, traced bool, outDir string) (map[string]*result, bool, error) {
	set := map[string]*result{}
	ok := true
	for _, name := range names {
		res, err := runChild(name, seed, seconds, traced, outDir)
		if err != nil {
			return nil, false, err
		}
		set[name] = res
		ok = ok && res.Correct
	}
	return set, ok, nil
}

// agree runs two full sets back to back, the second in reverse order, and
// reports whether every end-to-end metric repeats within its bound.
func agree(names []string, seed int64, seconds int, outDir string) (bool, error) {
	first, ok1, err := runSet(names, seed, seconds, false, outDir)
	if err != nil {
		return false, err
	}
	rev := append([]string(nil), names...)
	sort.Sort(sort.Reverse(sort.StringSlice(rev)))
	second, ok2, err := runSet(rev, seed, seconds, false, outDir)
	if err != nil {
		return false, err
	}
	ok := ok1 && ok2
	fmt.Printf("\n%-16s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel diff", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := first[name].Metrics[d.Name].Value, second[name].Metrics[d.Name].Value
			diff := ratio(b-a, a)
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-16s %-12s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

// normalizeArgs lets -trace be given as a bare switch or, as the acceptance
// driver does, followed by a separate 0 or 1.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process, and print its result object as the last line")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", baseSeconds, "nominal length of a timed region; scales operation counts, not a clock")
		traced  = flag.Bool("trace", false, "run the traced, reduced-length pipeline and report per-layer metrics")
		doAgree = flag.Bool("agree", false, "run two full sets and fail if any end-to-end metric differs by more than its bound")
		asJSON  = flag.Bool("json", false, "print all results as one JSON object at the end")
		outDir  = flag.String("out", "bench/out", "directory for span files")
	)
	if err := flag.CommandLine.Parse(normalizeArgs(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: must be at least 1", *seconds))
	}
	// Engine knobs must not leak into the measured process.
	for _, k := range []string{"ISHARE_BATCH", "ISHARE_SHARE_ARRANGEMENTS", "ISHARE_REUSE"} {
		os.Unsetenv(k)
	}

	if *name != "" {
		def, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		// One busy thread: optimizer and scheduler run with Workers 1, and
		// one P keeps the collector on the measured thread instead of on a
		// second core whose availability the box does not guarantee.
		runtime.GOMAXPROCS(1)
		fmt.Printf("env: ISHARE_BATCH, ISHARE_SHARE_ARRANGEMENTS, ISHARE_REUSE unset; GOMAXPROCS=1; %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
		var res *result
		var err error
		if *traced {
			res, err = runTraced(def, *seed, *seconds, *outDir)
		} else {
			res, err = runEndToEnd(def, *seed, *seconds)
		}
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	if *doAgree {
		ok, err := agree(names, *seed, *seconds, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Println("sets disagree")
			os.Exit(1)
		}
		fmt.Println("sets agree within every bound")
		return
	}
	set, ok, err := runSet(names, *seed, *seconds, *traced, *outDir)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		line, err := json.Marshal(set)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
