package experiments

import (
	"io"

	"ishare/internal/opt"
	"ishare/internal/trace"
)

// ExplainQueries plans the named TPC-H queries under one approach with
// tracing enabled and writes the EXPLAIN report: the chosen pace vector,
// each subplan's marginal incrementability, memo hit rates, and the
// optimizer's pace-search and decomposition decision logs. rel is the
// uniform relative final-work constraint applied to every query.
func ExplainQueries(cfg Config, names []string, approach opt.Approach, rel float64, out io.Writer) error {
	cfg = cfg.withDefaults()
	if cfg.Tracer == nil {
		// EXPLAIN is built from the decision log, so recording must be on
		// even when the caller didn't ask for a trace file.
		cfg.Tracer = trace.New()
	}
	w, err := NewWorkload(cfg, names, false)
	if err != nil {
		return err
	}
	relv := UniformRel(len(w.Queries), rel)
	abs, err := opt.AbsoluteConstraints(w.Queries, relv)
	if err != nil {
		return err
	}
	req := opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: cfg.MaxPace, Trace: cfg.Tracer}
	p, err := opt.Plan(approach, req)
	if err != nil {
		return err
	}
	e, err := opt.BuildExplain(p, req, w.Names, relv)
	if err != nil {
		return err
	}
	e.Write(out)
	return nil
}
