package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ishare/internal/catalog"
	"ishare/internal/delta"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// Options bounds workload generation.
type Options struct {
	// MaxTables caps the schema size (at least 1).
	MaxTables int
	// MaxQueries caps the workload size (at least 1).
	MaxQueries int
	// MinDeltas/MaxDeltas bound each table's stream length.
	MinDeltas, MaxDeltas int
	// ForceMinMax makes every aggregate query include a MIN or MAX and
	// biases streams toward deletions — the paper's hard IVM case.
	ForceMinMax bool
	// Churn attaches a random ChurnPlan (admissions and retirements at
	// window boundaries) to multi-query workloads. The plan is drawn after
	// everything else, so the same seed yields identical tables, streams
	// and SQL with the flag on or off.
	Churn bool
	// Adversarial reshapes the generated streams after base generation:
	// per table it may go nearly silent (bursty-quiet — idle scan cones,
	// the window-reuse fast path), double in volume (bursty-hot, skewed
	// arrival rates across tables), or drift mid-stream (the tail is
	// regenerated with every Int — join keys included — shifted, so the
	// value distribution the cost model calibrated on stops holding).
	// The mutation draws from a rand forked off the seed, so the base
	// workload for a given seed is identical with the flag off.
	Adversarial bool
	// DeepJoins adds a family of 2-3 queries, projections or aggregates,
	// over three aliased tables drawn with replacement and joined on c0: a
	// chain a-b-c (a join feeding a join) or a star joining b and c to a,
	// c being b's table again half the time, so that one table feeds both
	// joins. The family draws from a rand forked off the seed and is added
	// before the churn plan is drawn, so with the flag off every seed's
	// workload is unchanged.
	DeepJoins bool
}

// DefaultOptions returns the harness defaults.
func DefaultOptions() Options {
	return Options{MaxTables: 3, MaxQueries: 4, MinDeltas: 6, MaxDeltas: 42, Adversarial: true}
}

// TableDef is one generated table schema.
type TableDef struct {
	Name string
	Cols []catalog.Column
}

// Workload is a generated schema, per-table delta streams and SQL queries.
// Streams use all-ones bitsets (base data is valid for every query) and are
// prefix-consistent: every deletion retracts a row that is live at that
// point, so any pace split leaves the engine with meaningful deltas.
type Workload struct {
	Seed    int64
	Tables  []TableDef
	Streams map[string][]delta.Tuple
	SQL     []string
	// Churn optionally schedules online admissions and retirements; nil
	// means every query is present for the whole run.
	Churn *ChurnPlan
}

// Catalog builds a catalog for the workload, with statistics derived from
// the trigger-point table contents so the cost model sees honest inputs.
func (w *Workload) Catalog() (*catalog.Catalog, error) {
	final := FinalTables(w.Streams)
	cat := catalog.New()
	for _, td := range w.Tables {
		rows := final[td.Name]
		stats := catalog.TableStats{
			RowCount: float64(len(rows)),
			Columns:  make(map[string]catalog.ColumnStats, len(td.Cols)),
		}
		for i, col := range td.Cols {
			cs := catalog.ColumnStats{}
			distinct := make(map[string]bool)
			for _, row := range rows {
				v := row[i]
				if v.IsNull() {
					continue
				}
				distinct[value.Key(value.Row{v})] = true
				if v.K.Numeric() || v.K == value.KindDate {
					if cs.Min.IsNull() || value.Compare(v, cs.Min) < 0 {
						cs.Min = v
					}
					if cs.Max.IsNull() || value.Compare(v, cs.Max) > 0 {
						cs.Max = v
					}
				}
			}
			cs.Distinct = math.Max(1, float64(len(distinct)))
			stats.Columns[col.Name] = cs
		}
		if err := cat.Add(&catalog.Table{Name: td.Name, Columns: td.Cols, Stats: stats}); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// Bind parses and binds every query against the workload's catalog.
func (w *Workload) Bind() ([]plan.Query, error) {
	cat, err := w.Catalog()
	if err != nil {
		return nil, err
	}
	queries := make([]plan.Query, len(w.SQL))
	for i, sql := range w.SQL {
		q, err := plan.ParseAndBindQuery(fmt.Sprintf("q%d", i), sql, cat)
		if err != nil {
			return nil, fmt.Errorf("oracle: bind %q: %w", sql, err)
		}
		queries[i] = q
	}
	return queries, nil
}

// Deltas returns the total stream length across tables.
func (w *Workload) Deltas() int {
	n := 0
	for _, s := range w.Streams {
		n += len(s)
	}
	return n
}

// Generate builds a random workload. The same (seed, opts) pair always
// yields the same workload.
//
// The generated dialect deliberately stays inside the engine's exactly
// comparable fragment: float data is dyadic (multiples of 1/4) with small
// magnitudes so sums are exact in float64 regardless of accumulation order,
// MIN/MAX arguments are numeric, and DATE columns appear only as group keys
// and projections (the expression checker rejects DATE-vs-INT literal
// comparisons).
func Generate(seed int64, opts Options) *Workload {
	r := rand.New(rand.NewSource(seed))
	w := &Workload{Seed: seed, Streams: make(map[string][]delta.Tuple)}

	nTables := 1 + r.Intn(opts.MaxTables)
	for t := 0; t < nTables; t++ {
		cols := []catalog.Column{{Name: "c0", Type: value.KindInt}}
		extra := 1 + r.Intn(3)
		for c := 1; c <= extra; c++ {
			kind := value.KindInt
			switch r.Intn(8) {
			case 0:
				kind = value.KindString
			case 1:
				kind = value.KindDate
			case 2, 3:
				kind = value.KindFloat
			}
			cols = append(cols, catalog.Column{Name: fmt.Sprintf("c%d", c), Type: kind})
		}
		td := TableDef{Name: fmt.Sprintf("t%d", t), Cols: cols}
		w.Tables = append(w.Tables, td)
		w.Streams[td.Name] = genStream(r, td, opts)
	}

	nQueries := 1 + r.Intn(opts.MaxQueries)
	for len(w.SQL) < nQueries {
		// A family shares FROM and join structure across 1..3 queries so
		// the MQO finds overlapping subplans to share.
		from, cols := genFrom(r, w.Tables)
		family := 1 + r.Intn(3)
		for i := 0; i < family && len(w.SQL) < nQueries; i++ {
			w.SQL = append(w.SQL, genQuery(r, from, cols, opts))
		}
	}
	if opts.DeepJoins {
		rd := rand.New(rand.NewSource(seed ^ deepJoinsSalt))
		from, cols := genDeepFrom(rd, w.Tables)
		for family := 2 + rd.Intn(2); family > 0; family-- {
			w.SQL = append(w.SQL, genQuery(rd, from, cols, opts))
		}
	}
	if opts.Churn && len(w.SQL) > 1 {
		w.Churn = genChurn(r, len(w.SQL))
	}
	if opts.Adversarial {
		mutateAdversarial(rand.New(rand.NewSource(seed^adversarialSalt)), w)
	}
	return w
}

// deepJoinsSalt forks the deep-join family's randomness off the workload
// seed.
const deepJoinsSalt = 0x2545f4914f6cdd1d

// adversarialSalt forks the adversarial mutation's randomness off the
// workload seed, keeping the base generation seed-stable under the flag.
const adversarialSalt = 0x3779b97f4a7c15

// mutateAdversarial reshapes each table's stream into one of the arrival
// patterns the uniform generator never produces: near-silence, a burst of
// extra volume, or a mid-stream distribution shift. Every rewrite goes
// through repairStream/extendStream, so the streams stay prefix-consistent.
func mutateAdversarial(r *rand.Rand, w *Workload) {
	for _, td := range w.Tables {
		stream := w.Streams[td.Name]
		switch r.Intn(4) {
		case 0:
			// Bursty-quiet: the table all but stops arriving. Subplans
			// scanning only quiet tables have provably clean cones — the
			// window-reuse fast path.
			keep := r.Intn(3)
			if keep > len(stream) {
				keep = len(stream)
			}
			w.Streams[td.Name] = repairStream(append([]delta.Tuple(nil), stream[:keep]...))
		case 1:
			// Bursty-hot: the table arrives at a multiple of its generated
			// rate, skewing volume across tables.
			w.Streams[td.Name] = extendStream(r, td, stream, len(stream)*2+4, 0)
		case 2:
			// Mid-stream drift: at a random cut the value distribution
			// shifts — the regenerated tail offsets every Int, join keys
			// included, so calibrations taken on the head stop holding.
			cut := len(stream) * (1 + r.Intn(3)) / 4
			head := repairStream(append([]delta.Tuple(nil), stream[:cut]...))
			target := len(stream) + 2
			if target < len(head)+3 {
				target = len(head) + 3
			}
			w.Streams[td.Name] = extendStream(r, td, head, target, 5+r.Intn(5))
		}
	}
}

// extendStream appends random prefix-consistent deltas until the stream
// reaches target length. shift offsets every generated Int (join keys
// included), modeling a value-distribution drift relative to the base
// stream.
func extendStream(r *rand.Rand, td TableDef, stream []delta.Tuple, target, shift int) []delta.Tuple {
	out := append([]delta.Tuple(nil), stream...)
	var live []value.Row
	for _, t := range out {
		if t.Sign == delta.Delete {
			k := value.Key(t.Row)
			for i := range live {
				if value.Key(live[i]) == k {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		} else {
			live = append(live, t.Row)
		}
	}
	for len(out) < target {
		if len(live) > 0 && r.Float64() < 0.3 {
			i := r.Intn(len(live))
			out = append(out, Del(live[i]...))
			live = append(live[:i], live[i+1:]...)
		} else {
			row := genRowShifted(r, td, shift)
			out = append(out, Ins(row...))
			live = append(live, row)
		}
	}
	return out
}

// genRowShifted is genRow with every Int value offset by shift.
func genRowShifted(r *rand.Rand, td TableDef, shift int) value.Row {
	row := make(value.Row, len(td.Cols))
	for i, col := range td.Cols {
		v := genValue(r, col.Type, i == 0)
		if shift != 0 && v.K == value.KindInt {
			v = value.Int(v.I + int64(shift))
		}
		row[i] = v
	}
	return row
}

// genChurn draws a random admission/retirement schedule. Query 0 anchors the
// plan — admitted before the first window and never retired — so every
// window has at least one live query and the schedule is always valid.
func genChurn(r *rand.Rand, nq int) *ChurnPlan {
	cp := &ChurnPlan{
		Windows: 2 + r.Intn(3),
		Admit:   make([]int, nq),
		Retire:  make([]int, nq),
	}
	for q := range cp.Retire {
		cp.Retire[q] = -1
	}
	for q := 1; q < nq; q++ {
		cp.Admit[q] = r.Intn(cp.Windows)
		if room := cp.Windows - 1 - cp.Admit[q]; room > 0 && r.Float64() < 0.4 {
			cp.Retire[q] = cp.Admit[q] + 1 + r.Intn(room)
		}
	}
	// Arrangement-sharing toggles, drawn last so the admit/retire schedule
	// of a given seed is stable with and without them.
	if r.Float64() < 0.5 {
		n := 1 + r.Intn(2)
		for i := 0; i < n; i++ {
			cp.ToggleShare = append(cp.ToggleShare, 1+r.Intn(cp.Windows-1))
		}
	}
	// Window-reuse toggles, drawn after the sharing toggles for the same
	// seed-stability reason.
	if r.Float64() < 0.5 {
		n := 1 + r.Intn(2)
		for i := 0; i < n; i++ {
			cp.ToggleReuse = append(cp.ToggleReuse, 1+r.Intn(cp.Windows-1))
		}
	}
	return cp
}

// genStream produces a prefix-consistent signed stream for one table.
func genStream(r *rand.Rand, td TableDef, opts Options) []delta.Tuple {
	n := opts.MinDeltas + r.Intn(opts.MaxDeltas-opts.MinDeltas+1)
	deleteBias := 0.25
	if opts.ForceMinMax {
		deleteBias = 0.45
	}
	var stream []delta.Tuple
	var live []value.Row
	for len(stream) < n {
		p := r.Float64()
		switch {
		case len(live) > 0 && p < deleteBias:
			i := r.Intn(len(live))
			stream = append(stream, Del(live[i]...))
			live = append(live[:i], live[i+1:]...)
		case len(live) > 0 && p < deleteBias+0.10 && len(stream)+2 <= n:
			// Update: delete old, insert new.
			i := r.Intn(len(live))
			stream = append(stream, Del(live[i]...))
			row := genRow(r, td)
			stream = append(stream, Ins(row...))
			live[i] = row
		default:
			row := genRow(r, td)
			stream = append(stream, Ins(row...))
			live = append(live, row)
		}
	}
	return stream
}

func genRow(r *rand.Rand, td TableDef) value.Row {
	row := make(value.Row, len(td.Cols))
	for i, col := range td.Cols {
		row[i] = genValue(r, col.Type, i == 0)
	}
	return row
}

var stringPool = []string{"a", "b", "c", "ab", "ba", "abc", ""}

func genValue(r *rand.Rand, kind value.Kind, joinKey bool) value.Value {
	if joinKey {
		if r.Intn(16) == 0 {
			return value.Null // NULL join keys never match
		}
		return value.Int(int64(r.Intn(6)))
	}
	if r.Intn(14) == 0 {
		return value.Null
	}
	switch kind {
	case value.KindInt:
		return value.Int(int64(r.Intn(12) - 3))
	case value.KindFloat:
		// Dyadic: exact under float64 addition in any order.
		return value.Float(float64(r.Intn(33)-8) / 4)
	case value.KindString:
		return value.Str(stringPool[r.Intn(len(stringPool))])
	case value.KindDate:
		return value.Date(int64(7300 + r.Intn(10)))
	default:
		return value.Null
	}
}

// fromClause is a generated FROM shape shared by a query family.
type fromClause struct {
	text   string
	join   string // join predicate, "" for single table
	tables []TableDef
}

// qcol is a qualified column available to a query.
type qcol struct {
	name string // qualified, e.g. "t0.c1"
	kind value.Kind
}

func genFrom(r *rand.Rand, tables []TableDef) (fromClause, []qcol) {
	var picked []TableDef
	if len(tables) >= 2 && r.Float64() < 0.55 {
		i := r.Intn(len(tables))
		j := r.Intn(len(tables) - 1)
		if j >= i {
			j++
		}
		picked = []TableDef{tables[i], tables[j]}
	} else {
		picked = []TableDef{tables[r.Intn(len(tables))]}
	}
	names := make([]string, len(picked))
	var cols []qcol
	for i, td := range picked {
		names[i] = td.Name
		for _, c := range td.Cols {
			cols = append(cols, qcol{name: td.Name + "." + c.Name, kind: c.Type})
		}
	}
	fc := fromClause{text: strings.Join(names, ", "), tables: picked}
	if len(picked) == 2 {
		fc.join = picked[0].Name + ".c0 = " + picked[1].Name + ".c0"
	}
	return fc, cols
}

// genDeepFrom draws a FROM over three aliased tables, picked with
// replacement, joined on c0: a chain a-b-c, or a star joining b and c to a.
// Half the time c is b's table again, so that one table feeds both joins.
func genDeepFrom(r *rand.Rand, tables []TableDef) (fromClause, []qcol) {
	aliases := []string{"a", "b", "c"}
	fc := fromClause{join: "a.c0 = b.c0 AND b.c0 = c.c0"}
	if r.Intn(2) == 0 {
		fc.join = "a.c0 = b.c0 AND a.c0 = c.c0"
	}
	var names []string
	var cols []qcol
	for _, alias := range aliases {
		td := tables[r.Intn(len(tables))]
		if alias == "c" && r.Intn(2) == 0 {
			td = fc.tables[1] // b's table again: a self-join
		}
		fc.tables = append(fc.tables, td)
		names = append(names, td.Name+" "+alias)
		for _, c := range td.Cols {
			cols = append(cols, qcol{name: alias + "." + c.Name, kind: c.Type})
		}
	}
	fc.text = strings.Join(names, ", ")
	return fc, cols
}

func genQuery(r *rand.Rand, from fromClause, cols []qcol, opts Options) string {
	var b strings.Builder
	b.WriteString("SELECT ")

	where := genWhere(r, from, cols)
	isAgg := opts.ForceMinMax || r.Float64() < 0.55
	if !isAgg {
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(genProjection(r, cols))
		}
		b.WriteString(" FROM ")
		b.WriteString(from.text)
		b.WriteString(where)
		return b.String()
	}

	// Aggregate query: optional single group key, 1-2 aggregates.
	groupCol := ""
	if !opts.ForceMinMax && r.Float64() < 0.15 {
		// Global aggregate, no GROUP BY.
	} else {
		groupCol = cols[r.Intn(len(cols))].name
		b.WriteString(groupCol)
		b.WriteString(", ")
	}
	aggs := genAggs(r, cols, opts.ForceMinMax)
	b.WriteString(strings.Join(aggs, ", "))
	b.WriteString(" FROM ")
	b.WriteString(from.text)
	b.WriteString(where)
	if groupCol != "" {
		b.WriteString(" GROUP BY ")
		b.WriteString(groupCol)
	}
	if r.Float64() < 0.3 {
		b.WriteString(" HAVING ")
		b.WriteString(aggs[r.Intn(len(aggs))])
		b.WriteString(" ")
		b.WriteString(cmpOps[r.Intn(len(cmpOps))])
		b.WriteString(fmt.Sprintf(" %d", r.Intn(5)-1))
	}
	return b.String()
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// genWhere renders the WHERE clause: the family's join predicate plus 0-2
// random filter conjuncts.
func genWhere(r *rand.Rand, from fromClause, cols []qcol) string {
	var conj []string
	if from.join != "" {
		conj = append(conj, from.join)
	}
	n := r.Intn(3)
	for i := 0; i < n; i++ {
		if p := genPred(r, cols[r.Intn(len(cols))]); p != "" {
			conj = append(conj, p)
		}
	}
	if len(conj) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conj, " AND ")
}

func genPred(r *rand.Rand, c qcol) string {
	switch c.kind {
	case value.KindInt:
		switch r.Intn(4) {
		case 0:
			lo := r.Intn(6) - 2
			return fmt.Sprintf("%s BETWEEN %d AND %d", c.name, lo, lo+r.Intn(4))
		case 1:
			return fmt.Sprintf("%s IN (%d, %d)", c.name, r.Intn(8)-2, r.Intn(8)-2)
		default:
			return fmt.Sprintf("%s %s %d", c.name, cmpOps[r.Intn(len(cmpOps))], r.Intn(10)-2)
		}
	case value.KindFloat:
		return fmt.Sprintf("%s %s %s", c.name, cmpOps[r.Intn(len(cmpOps))], floatLit(r))
	case value.KindString:
		if r.Intn(2) == 0 {
			return fmt.Sprintf("%s = '%s'", c.name, stringPool[r.Intn(len(stringPool)-1)])
		}
		not := ""
		if r.Intn(3) == 0 {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sLIKE '%s%%'", c.name, not, stringPool[r.Intn(3)])
	default:
		// DATE columns are incomparable with integer literals; skip.
		return ""
	}
}

// floatLit renders a non-negative dyadic literal the lexer accepts.
func floatLit(r *rand.Rand) string {
	q := r.Intn(25) // quarters, 0..6
	return fmt.Sprintf("%d.%02d", q/4, q%4*25)
}

func genProjection(r *rand.Rand, cols []qcol) string {
	c := cols[r.Intn(len(cols))]
	if c.kind == value.KindInt && r.Intn(4) == 0 {
		if d := pick(r, cols, value.KindInt); d != "" {
			return c.name + " + " + d
		}
	}
	return c.name
}

func genAggs(r *rand.Rand, cols []qcol, forceMinMax bool) []string {
	n := 1 + r.Intn(2)
	out := make([]string, 0, n)
	if forceMinMax {
		if c := pickNumeric(r, cols); c != "" {
			fn := "MIN"
			if r.Intn(2) == 0 {
				fn = "MAX"
			}
			out = append(out, fn+"("+c+")")
		}
	}
	for len(out) < n {
		switch r.Intn(6) {
		case 0:
			out = append(out, "COUNT(*)")
		case 1:
			out = append(out, "COUNT("+cols[r.Intn(len(cols))].name+")")
		default:
			c := pickNumeric(r, cols)
			if c == "" {
				out = append(out, "COUNT(*)")
				continue
			}
			fns := []string{"SUM", "AVG", "MIN", "MAX"}
			out = append(out, fns[r.Intn(len(fns))]+"("+c+")")
		}
	}
	return dedupe(out)
}

func pick(r *rand.Rand, cols []qcol, kind value.Kind) string {
	var cand []string
	for _, c := range cols {
		if c.kind == kind {
			cand = append(cand, c.name)
		}
	}
	if len(cand) == 0 {
		return ""
	}
	return cand[r.Intn(len(cand))]
}

func pickNumeric(r *rand.Rand, cols []qcol) string {
	var cand []string
	for _, c := range cols {
		if c.kind == value.KindInt || c.kind == value.KindFloat {
			cand = append(cand, c.name)
		}
	}
	if len(cand) == 0 {
		return ""
	}
	return cand[r.Intn(len(cand))]
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
