// Command benchdiff compares benchmark results two ways.
//
// File mode compares two benchjson reports and prints a per-benchmark delta
// table: ns/op, B/op and allocs/op changes from the base report to the new
// one. It is informational — the exit status is 0 no matter how the numbers
// moved — because micro-benchmark noise on shared CI runners is too high for
// a hard gate; the table exists so reviewers can eyeball regressions next to
// the artifact JSON.
//
//	benchdiff BENCH_PR4.json BENCH_PR5.json
//
// Interleave mode measures an A/B configuration delta live: it runs the
// selected benchmarks N times under env A and N times under env B, strictly
// alternating (A,B,A,B,...) so slow drift of the host — thermal state,
// noisy neighbors — lands on both sides equally, and reports the per-
// benchmark medians and their delta. Medians of interleaved runs are the
// only defensible way to accept a perf change on a noisy box; a single
// back-to-back pair is not.
//
//	benchdiff -interleave 5 -bench BenchmarkExecJob -pkg . \
//	    -env-a GOGC=50 -env-b GOGC=200
//
// The engine reads no environment variable of its own; two code paths of one
// build are compared as sub-benchmarks instead (BenchmarkWindowReuse's
// reuse=on / reuse=off).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Result mirrors cmd/benchjson's record.
type Result struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

func main() {
	interleave := flag.Int("interleave", 0, "run an interleaved A/B measurement with this many runs per side (0 = compare two benchjson files)")
	bench := flag.String("bench", ".", "benchmark pattern for -interleave (go test -bench)")
	pkg := flag.String("pkg", "./...", "package pattern for -interleave")
	envA := flag.String("env-a", "", "comma-separated KEY=VALUE assignments for side A (base)")
	envB := flag.String("env-b", "", "comma-separated KEY=VALUE assignments for side B (new)")
	benchtime := flag.String("benchtime", "", "go test -benchtime for -interleave (empty = tool default)")
	flag.Parse()

	if *interleave > 0 {
		if err := runInterleaved(*interleave, *bench, *pkg, *envA, *envB, *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BASE.json NEW.json")
		fmt.Fprintln(os.Stderr, "       benchdiff -interleave N [-bench RE] [-pkg PKG] [-env-a K=V,...] [-env-b K=V,...]")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("%-44s %14s %14s %8s %12s %8s\n",
		"benchmark", "base ns/op", "new ns/op", "Δns", "allocs/op", "Δallocs")
	for _, name := range names {
		n := cur[name]
		b, ok := base[name]
		if !ok {
			fmt.Printf("%-44s %14s %14.0f %8s %12d %8s\n",
				name, "-", n.NsOp, "new", n.AllocsOp, "new")
			continue
		}
		fmt.Printf("%-44s %14.0f %14.0f %8s %12d %8s\n",
			name, b.NsOp, n.NsOp, pct(b.NsOp, n.NsOp),
			n.AllocsOp, pct(float64(b.AllocsOp), float64(n.AllocsOp)))
	}
	for name := range base {
		if _, ok := cur[name]; !ok {
			fmt.Printf("%-44s %14.0f %14s  (dropped)\n", name, base[name].NsOp, "-")
		}
	}
}

// runInterleaved measures env A vs env B with n alternating runs per side
// and prints per-benchmark median ns/op for both plus the delta.
func runInterleaved(n int, bench, pkg, envA, envB, benchtime string) error {
	samplesA := make(map[string][]float64)
	samplesB := make(map[string][]float64)
	for i := 0; i < n; i++ {
		for _, side := range []struct {
			env     string
			samples map[string][]float64
		}{{envA, samplesA}, {envB, samplesB}} {
			out, err := runBench(bench, pkg, side.env, benchtime)
			if err != nil {
				return err
			}
			for name, ns := range out {
				side.samples[name] = append(side.samples[name], ns)
			}
		}
		fmt.Fprintf(os.Stderr, "interleaved pair %d/%d done\n", i+1, n)
	}

	names := make([]string, 0, len(samplesA))
	for name := range samplesA {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no benchmarks matched -bench %q in %s", bench, pkg)
	}

	fmt.Printf("A: %s   B: %s   (%d interleaved runs per side, medians)\n",
		orDefault(envA, "ambient env"), orDefault(envB, "ambient env"), n)
	fmt.Printf("%-44s %14s %14s %8s\n", "benchmark", "A med ns/op", "B med ns/op", "Δns")
	for _, name := range names {
		a := median(samplesA[name])
		bs, ok := samplesB[name]
		if !ok {
			fmt.Printf("%-44s %14.0f %14s  (missing in B)\n", name, a, "-")
			continue
		}
		b := median(bs)
		fmt.Printf("%-44s %14.0f %14.0f %8s\n", name, a, b, pct(a, b))
	}
	return nil
}

// runBench runs one `go test -bench` pass under extra env assignments and
// returns each benchmark's ns/op.
func runBench(bench, pkg, env, benchtime string) (map[string]float64, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-count", "1"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	for _, kv := range strings.Split(env, ",") {
		if kv = strings.TrimSpace(kv); kv != "" {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				ns, err := strconv.ParseFloat(fields[i], 64)
				if err == nil {
					out[fields[0]] = ns
				}
				break
			}
		}
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// pct renders the relative change from a to b.
func pct(a, b float64) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
}

func load(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]Result, len(rs))
	for _, r := range rs {
		out[r.Name] = r
	}
	return out, nil
}
