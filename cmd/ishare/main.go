// Command ishare runs the paper's experiments from the terminal:
//
//	ishare -experiment fig9 -sf 0.05 -maxpace 40
//	ishare -experiment sched -serve-metrics :8080
//	ishare -experiment sched -trace out.json
//	ishare -explain Q1,Q6,Q14 -rel 0.5
//	ishare -experiment all
//
// Experiments: fig9, fig10, fig11, fig12, table1, fig13, table2, fig14,
// table3, fig15, fig16, fig17a, fig17b, fig17c, sched, accuracy, all.
//
// -trace writes a Chrome trace-event JSON file (loadable in Perfetto or
// chrome://tracing) covering the whole run: optimizer tracks (parse, build,
// pace search, decomposition decisions) plus one track per subplan for every
// scheduler job. -explain prints the optimizer's EXPLAIN report for the
// named TPC-H queries instead of running an experiment. -debug-addr serves
// net/http/pprof for live profiling; executor and search goroutines carry
// pprof labels (phase, subplan) for tag filtering.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"ishare/internal/eventlog"
	"ishare/internal/experiments"
	"ishare/internal/metrics"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/sched"
	"ishare/internal/tpch"
	"ishare/internal/trace"
)

// options is the parsed command line.
type options struct {
	Experiment   string
	Config       experiments.Config
	DOT          string
	ServeMetrics string
	ServeStatus  string
	Events       string
	Trace        string
	Explain      string
	Rel          float64
	DebugAddr    string
	Churn        bool
}

// parseArgs parses the command line (sans program name) into options; split
// out of main so tests can drive the full flag → Config plumbing.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("ishare", flag.ContinueOnError)
	var (
		experiment   = fs.String("experiment", "all", "experiment id (fig9..fig17c, table1..table3, sched, accuracy, all)")
		sf           = fs.Float64("sf", 0.05, "TPC-H scale factor")
		seed         = fs.Int64("seed", 1, "data and constraint seed")
		maxPace      = fs.Int("maxpace", 40, "maximum pace J")
		budget       = fs.Duration("dnf", 30*time.Second, "optimization budget before DNF (fig15)")
		dot          = fs.String("dot", "", "instead of an experiment, write the shared plan of the named queries (comma-separated, e.g. Q1,Q15) as Graphviz DOT to stdout")
		serveMetrics = fs.String("serve-metrics", "", "serve scheduler metrics as JSON on this address (e.g. :8080) while and after running the experiment; /prometheus serves the text exposition format")
		serveStatus  = fs.String("serve-status", "", "serve a live statusz endpoint (pace vector, per-query slack, per-subplan drift table, arrangement stats) on this address (e.g. :8081)")
		events       = fs.String("events", "", "write the run's structured event log (window closes, degradations, drift alerts, grafts) as JSONL to this file")
		traceOut     = fs.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable) covering the run")
		explain      = fs.String("explain", "", "instead of an experiment, print the optimizer's EXPLAIN report for the named queries (comma-separated, e.g. Q1,Q6,Q14)")
		rel          = fs.Float64("rel", 0.5, "uniform relative final-work constraint for -explain")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
		churn        = fs.Bool("churn", false, "instead of an experiment, run the online-admission demo: admit and retire queries on a live shared plan")
		recalibrate  = fs.Bool("recalibrate", false, "close the cost loop in scheduler-backed experiments: fold persistent drift back into the cost model and re-search paces warm-started from the live memo (implies profiling)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &options{
		Experiment: *experiment,
		Config: experiments.Config{
			SF: *sf, Seed: *seed, MaxPace: *maxPace,
			DNFBudget: *budget, Recalibrate: *recalibrate,
		},
		DOT:          *dot,
		ServeMetrics: *serveMetrics,
		ServeStatus:  *serveStatus,
		Events:       *events,
		Trace:        *traceOut,
		Explain:      *explain,
		Rel:          *rel,
		DebugAddr:    *debugAddr,
		Churn:        *churn,
	}, nil
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if opts.DebugAddr != "" {
		// net/http/pprof registered its handlers on DefaultServeMux at
		// import time; serving nil exposes them.
		go func() {
			if err := http.ListenAndServe(opts.DebugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ishare: debug-addr:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ishare: serving pprof on %s/debug/pprof/\n", opts.DebugAddr)
	}
	if opts.Trace != "" {
		opts.Config.Tracer = trace.New()
	}
	if opts.DOT != "" {
		if err := writeDOT(opts.DOT, opts.Config); err != nil {
			fmt.Fprintln(os.Stderr, "ishare:", err)
			os.Exit(1)
		}
		return
	}
	if opts.Churn {
		if err := runChurn(os.Stdout, opts.Config.Seed); err != nil {
			fmt.Fprintln(os.Stderr, "ishare:", err)
			os.Exit(1)
		}
		return
	}
	if opts.Explain != "" {
		names := strings.Split(opts.Explain, ",")
		if err := experiments.ExplainQueries(opts.Config, names, opt.IShare, opts.Rel, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ishare:", err)
			os.Exit(1)
		}
		if err := writeTrace(opts.Config.Tracer, opts.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "ishare:", err)
			os.Exit(1)
		}
		return
	}
	var reg *metrics.Registry
	if opts.ServeMetrics != "" {
		reg = metrics.NewRegistry()
		go func() {
			if err := http.ListenAndServe(opts.ServeMetrics, metrics.Handler(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "ishare: serve-metrics:", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "ishare: serving metrics on %s\n", opts.ServeMetrics)
	}
	if opts.ServeStatus != "" {
		board := &sched.StatusBoard{}
		opts.Config.Status = board
		opts.Config.Profile = true
		go func() {
			if err := http.ListenAndServe(opts.ServeStatus, sched.StatusHandler(board)); err != nil {
				fmt.Fprintln(os.Stderr, "ishare: serve-status:", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "ishare: serving statusz on %s\n", opts.ServeStatus)
	}
	var eventsFile *os.File
	if opts.Events != "" {
		f, err := os.Create(opts.Events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ishare: events:", err)
			os.Exit(1)
		}
		eventsFile = f
		opts.Config.Events = eventlog.New(f, 0)
		opts.Config.Profile = true
	}
	if err := run(os.Stdout, opts.Experiment, opts.Config, reg); err != nil {
		fmt.Fprintln(os.Stderr, "ishare:", err)
		os.Exit(1)
	}
	if eventsFile != nil {
		if err := opts.Config.Events.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "ishare: events:", err)
			os.Exit(1)
		}
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ishare: events:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ishare: wrote %d events to %s\n", opts.Config.Events.Len(), opts.Events)
	}
	if err := writeTrace(opts.Config.Tracer, opts.Trace); err != nil {
		fmt.Fprintln(os.Stderr, "ishare:", err)
		os.Exit(1)
	}
	if opts.ServeMetrics != "" || opts.ServeStatus != "" {
		fmt.Fprintf(os.Stderr, "ishare: experiment done; still serving (interrupt to exit)\n")
		select {}
	}
}

// writeTrace exports the tracer as Chrome trace-event JSON; a no-op when
// tracing was not requested.
func writeTrace(tr *trace.Tracer, path string) error {
	if tr == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ishare: wrote trace to %s\n", path)
	return nil
}

// writeDOT binds the named queries, merges them, and dumps the subplan
// graph for Graphviz rendering.
func writeDOT(names string, cfg experiments.Config) error {
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		return err
	}
	qs, err := tpch.ByName(strings.Split(names, ",")...)
	if err != nil {
		return err
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		return err
	}
	sp, err := mqo.Build(bound)
	if err != nil {
		return err
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		return err
	}
	return g.WriteDOT(os.Stdout, nil)
}

func run(out *os.File, id string, cfg experiments.Config, reg *metrics.Registry) error {
	switch id {
	case "fig9":
		r, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		r.Report(out)
	case "fig10":
		r, err := experiments.Figure10(cfg)
		if err != nil {
			return err
		}
		r.Report(out)
	case "fig11":
		r, err := experiments.Figure11(cfg)
		if err != nil {
			return err
		}
		r.Report(out)
	case "fig12":
		r, err := experiments.Figure12(cfg)
		if err != nil {
			return err
		}
		r.Report(out)
	case "table1":
		f9, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		f11, err := experiments.Figure11(cfg)
		if err != nil {
			return err
		}
		f12, err := experiments.Figure12(cfg)
		if err != nil {
			return err
		}
		experiments.Table1(f9, f11, f12).Report(out)
	case "fig13", "table2":
		r, err := experiments.Figure13(cfg)
		if err != nil {
			return err
		}
		if id == "fig13" {
			r.Report(out)
		} else {
			r.Table2(out)
		}
	case "fig14", "table3":
		r, err := experiments.Figure14(cfg)
		if err != nil {
			return err
		}
		if id == "fig14" {
			r.Report(out)
		} else {
			r.Table3(out)
		}
	case "fig15":
		r, err := experiments.Figure15(cfg, nil)
		if err != nil {
			return err
		}
		r.Report(out)
	case "fig16":
		r, err := experiments.Figure16(cfg, nil)
		if err != nil {
			return err
		}
		r.Report(out)
	case "accuracy":
		r, err := experiments.ModelAccuracy(cfg)
		if err != nil {
			return err
		}
		r.Report(out)
	case "sched":
		r, err := experiments.SchedulerLatency(cfg, reg)
		if err != nil {
			return err
		}
		r.Report(out)
	case "fig17a", "fig17b", "fig17c":
		label := map[string]string{"fig17a": "PairA", "fig17b": "PairB", "fig17c": "PairC"}[id]
		r, err := experiments.Figure17(cfg, label)
		if err != nil {
			return err
		}
		r.Report(out)
	case "all":
		for _, each := range []string{
			"fig9", "fig10", "fig11", "fig12", "table1", "fig13", "table2",
			"fig14", "table3", "fig15", "fig16", "fig17a", "fig17b", "fig17c",
			"accuracy", "sched",
		} {
			fmt.Fprintf(out, "==== %s ====\n", each)
			if err := run(out, each, cfg, reg); err != nil {
				return fmt.Errorf("%s: %w", each, err)
			}
			fmt.Fprintln(out)
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
