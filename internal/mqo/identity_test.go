package mqo_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/decompose"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/oracle"
	"ishare/internal/plan"
	"ishare/internal/tpch"
	"ishare/internal/value"
)

var update = flag.Bool("update", false, "rewrite testdata/identity_golden.txt")

// TestIdentityGolden pins every identity rendered from an operator's
// structure — merge and base signatures, local and loose state signatures,
// restricted cone signatures and arrangement keys — over the TPC-H queries
// (with and without their variants), a plan built under sharing classes, a
// predicate-conflict private copy, a generated corpus and every revision of
// the generated churn corpus. Plans, paces, saved plans, calibration, graft
// adoption and arrangement sharing are all keyed by these strings, so a
// refactor of the renderers must leave the file byte-identical.
func TestIdentityGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range identityCorpus(t) {
		fmt.Fprintf(&out, "== %s\n", c.name)
		renderIdentities(&out, graphFor(t, c.queries, c.opts))
	}
	path := filepath.Join("testdata", "identity_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("identity rendering changed at line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("identity rendering changed: %d lines, want %d", len(got), len(exp))
	}
}

type identityCase struct {
	name    string
	queries []plan.Query
	opts    mqo.BuildOptions
}

func identityCorpus(t *testing.T) []identityCase {
	t.Helper()
	cat, err := tpch.NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tpch.Bind(tpch.All(), cat, false)
	if err != nil {
		t.Fatal(err)
	}
	variants, err := tpch.Bind(tpch.All(), cat, true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []identityCase{
		{name: "tpch", queries: plain},
		{name: "tpch+variants", queries: append(append([]plan.Query(nil), plain...), variants...)},
		{name: "tpch split", queries: plain, opts: mqo.BuildOptions{Classes: decompose.ClassesFromSplits(halveShared(t, plain))}},
	}
	conflict := `SELECT p1.p_brand FROM part p1, part p2
		WHERE p1.p_partkey = p2.p_partkey AND p1.p_size = 1 AND p2.p_size = 2`
	var priv []plan.Query
	for _, name := range []string{"q1", "q2"} {
		q, err := plan.ParseAndBindQuery(name, conflict, cat)
		if err != nil {
			t.Fatal(err)
		}
		priv = append(priv, q)
	}
	cases = append(cases, identityCase{name: "pred conflict", queries: priv})

	for seed := int64(0); seed < 40; seed++ {
		w := oracle.Generate(seed, oracle.DefaultOptions())
		qs, err := w.Bind()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases = append(cases, identityCase{name: fmt.Sprintf("generated %d", seed), queries: qs})
	}
	opts := oracle.DefaultOptions()
	opts.Churn = true
	for seed := int64(0); seed < 40; seed++ {
		w := oracle.Generate(seed, opts)
		if w.Churn == nil {
			continue
		}
		qs, err := w.Bind()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k, layout := range churnRevisions(w.Churn, qs) {
			if layout != nil {
				cases = append(cases, identityCase{name: fmt.Sprintf("churn %d window %d", seed, k), queries: layout})
			}
		}
	}
	return cases
}

// halveShared splits every operator of the maximally shared plan that four
// or more queries share into its lower and upper halves of queries, as an
// adopted decomposition would, so the plan built from the splits carries
// class-suffixed merge signatures.
func halveShared(t *testing.T, qs []plan.Query) map[string][]mqo.Bitset {
	t.Helper()
	sp, err := mqo.Build(qs)
	if err != nil {
		t.Fatal(err)
	}
	splits := make(map[string][]mqo.Bitset)
	for _, o := range sp.Ops {
		m := o.Queries.Members()
		if len(m) < 4 {
			continue
		}
		var lo, hi mqo.Bitset
		for i, q := range m {
			if i < len(m)/2 {
				lo = lo.With(q)
			} else {
				hi = hi.With(q)
			}
		}
		splits[o.BaseSignature()] = []mqo.Bitset{lo, hi}
	}
	return splits
}

// churnRevisions replays a churn plan's admissions and retirements with
// opt.Live's lowest-free-slot reuse and returns, per window, the slot layout
// when that window's boundary changed it and nil otherwise.
func churnRevisions(cp *oracle.ChurnPlan, queries []plan.Query) [][]plan.Query {
	out := make([][]plan.Query, cp.Windows)
	var slots []plan.Query
	slotOf := make([]int, len(queries))
	for k := 0; k < cp.Windows; k++ {
		changed := false
		for q := range queries {
			if cp.Retire[q] == k {
				slots[slotOf[q]] = plan.Query{}
				changed = true
			}
		}
		for q := range queries {
			if cp.Admit[q] != k {
				continue
			}
			slot := len(slots)
			for i := range slots {
				if slots[i].Root == nil {
					slot = i
					break
				}
			}
			if slot == len(slots) {
				slots = append(slots, plan.Query{})
			}
			slots[slot], slotOf[q] = queries[q], slot
			changed = true
		}
		if changed {
			out[k] = append([]plan.Query(nil), slots...)
		}
	}
	return out
}

func graphFor(t *testing.T, qs []plan.Query, opts mqo.BuildOptions) *mqo.Graph {
	t.Helper()
	sp, err := mqo.BuildWithOptions(qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// renderIdentities writes every identity family of g, one line per
// operator or subplan rendering.
func renderIdentities(w *bytes.Buffer, g *mqo.Graph) {
	for _, o := range g.Plan.Ops {
		fmt.Fprintf(w, "op%d sig %s\nop%d base %s\n", o.ID, o.DedupSignature(), o.ID, o.BaseSignature())
		switch o.Kind {
		case mqo.KindJoin:
			for side := 0; side < 2; side++ {
				k := mqo.JoinSideArrangeKey(o, side)
				fmt.Fprintf(w, "op%d joinside%d %v %s\n", o.ID, side, k.Order, k.Sig)
			}
		case mqo.KindAggregate:
			k := mqo.AggIndexArrangeKey(o)
			fmt.Fprintf(w, "op%d aggidx %v %s\n", o.ID, k.Order, k.Sig)
		}
	}
	local, loose := mqo.LocalStateSignatures(g), mqo.LooseStateSignatures(g)
	for _, s := range g.Subplans {
		fmt.Fprintf(w, "sub%d local %s\nsub%d loose %s\n", s.ID, local[s.ID], s.ID, loose[s.ID])
		masks := []mqo.Bitset{s.Queries}
		if s.Queries.Count() > 1 {
			for _, q := range s.Queries.Members() {
				masks = append(masks, mqo.Bit(q))
			}
		}
		for _, m := range masks {
			if sig, ok := mqo.RestrictedConeSignature(g, s, m); ok {
				fmt.Fprintf(w, "sub%d cone%s %s\n", s.ID, m, sig)
			} else {
				fmt.Fprintf(w, "sub%d cone%s -\n", s.ID, m)
			}
		}
	}
}

// TestIdentityFieldCoverage changes one payload field of one operator at a
// time — and, apart from the payload, one marker predicate and the query
// numbering — and asserts which identity families' renderings change. It
// pins each family's documented exclusions: merge and base signatures
// ignore predicates and identify a root projection by its query, not its
// list; an aggregate-index key ignores the aggregate functions; arrangement
// keys rename queries to canonical slots; the loose state signature masks
// query slots. A payload field with no case here fails the test, so a field
// added later must be decided on by every family first.
func TestIdentityFieldCoverage(t *testing.T) {
	cat, err := tpch.NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	// One query per shape, over disjoint tables so no change reaches
	// another query: a join of two filtered scans, an aggregate over a scan
	// (the shapes with arrangement keys) and a filtered projection (a
	// linear cone, the shape with restricted cone signatures).
	sqls := []string{
		`SELECT p_brand FROM part, partsupp WHERE p_partkey = ps_partkey AND p_size > 10 AND ps_availqty < 5`,
		`SELECT l_partkey, SUM(l_quantity) AS s FROM lineitem GROUP BY l_partkey`,
		`SELECT s_name FROM supplier WHERE s_nationkey < 3`,
	}
	const joinQ, aggQ, projQ = 0, 1, 2
	bind := func() []plan.Query {
		qs := make([]plan.Query, len(sqls))
		for i, sql := range sqls {
			q, err := plan.ParseAndBindQuery(fmt.Sprintf("q%d", i), sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		return qs
	}
	renamed := func(tbl *catalog.Table) *catalog.Table {
		c := *tbl
		c.Name += "_copy"
		return &c
	}
	cases := []struct {
		name  string
		field string // the Payload field changed, "" for none
		edit  func(qs []plan.Query) []plan.Query
		want  string // the families whose renderings change
	}{
		{"table under a join", "Table", func(qs []plan.Query) []plan.Query {
			s := find[*plan.Scan](qs[joinQ].Root)
			s.Table = renamed(s.Table)
			return qs
		}, "sig base local loose joinside"},
		{"table under an aggregate", "Table", func(qs []plan.Query) []plan.Query {
			s := find[*plan.Scan](qs[aggQ].Root)
			s.Table = renamed(s.Table)
			return qs
		}, "sig base local loose aggidx"},
		{"table under a projection", "Table", func(qs []plan.Query) []plan.Query {
			s := find[*plan.Scan](qs[projQ].Root)
			s.Table = renamed(s.Table)
			return qs
		}, "sig base local loose cone"},
		{"left join key", "LeftKeys", func(qs []plan.Query) []plan.Query {
			j := find[*plan.Join](qs[joinQ].Root)
			j.LeftKeys[0] = column(t, j.Left, "p_size")
			return qs
		}, "sig base local loose joinside"},
		{"right join key", "RightKeys", func(qs []plan.Query) []plan.Query {
			j := find[*plan.Join](qs[joinQ].Root)
			j.RightKeys[0] = column(t, j.Right, "ps_availqty")
			return qs
		}, "sig base local loose joinside"},
		{"group-by expression", "GroupBy", func(qs []plan.Query) []plan.Query {
			a := find[*plan.Aggregate](qs[aggQ].Root)
			a.GroupBy[0].E = columnExpr(t, a.Input, "l_suppkey")
			return qs
		}, "sig base local loose aggidx"},
		{"aggregate function", "Aggs", func(qs []plan.Query) []plan.Query {
			find[*plan.Aggregate](qs[aggQ].Root).Aggs[0].Func = plan.AggMax
			return qs
		}, "sig base local loose"},
		{"aggregate argument", "Aggs", func(qs []plan.Query) []plan.Query {
			a := find[*plan.Aggregate](qs[aggQ].Root)
			a.Aggs[0].Arg = columnExpr(t, a.Input, "l_extendedprice")
			return qs
		}, "sig base local loose"},
		{"projection expression", "Exprs", func(qs []plan.Query) []plan.Query {
			p := qs[projQ].Root.(*plan.Project)
			p.Exprs[0].E = columnExpr(t, p.Input, "s_acctbal")
			return qs
		}, "local loose cone"},
		{"predicate under a projection", "", func(qs []plan.Query) []plan.Query {
			s := find[*plan.Select](qs[projQ].Root)
			s.Pred = &expr.Binary{Op: expr.OpLt, L: columnExpr(t, s.Input, "s_nationkey"), R: &expr.Const{Val: value.Int(4)}}
			return qs
		}, "local loose cone"},
		{"predicate under a join", "", func(qs []plan.Query) []plan.Query {
			s := find[*plan.Select](qs[joinQ].Root)
			s.Pred = &expr.Binary{Op: expr.OpGt, L: columnExpr(t, s.Input, "p_size"), R: &expr.Const{Val: value.Int(11)}}
			return qs
		}, "local loose joinside"},
		{"query numbering", "", func(qs []plan.Query) []plan.Query {
			return append([]plan.Query{{Name: "inactive"}}, qs...)
		}, "sig base local cone"},
	}
	covered := map[string]bool{"Kind": true} // a kind change is a different render branch
	base := identityFamilies(t, bind())
	for _, f := range identityFamilyNames {
		if !slices.ContainsFunc(base[f], func(s string) bool { return s != "" }) {
			t.Fatalf("the corpus renders no %s identity", f)
		}
	}
	for _, c := range cases {
		covered[c.field] = true
		got := identityFamilies(t, c.edit(bind()))
		var changed []string
		for _, f := range identityFamilyNames {
			if !slices.Equal(base[f], got[f]) {
				changed = append(changed, f)
			}
		}
		if strings.Join(changed, " ") != c.want {
			t.Errorf("%s: changed families %q, want %q", c.name, strings.Join(changed, " "), c.want)
		}
	}
	pt := reflect.TypeOf(mqo.Payload{})
	for i := 0; i < pt.NumField(); i++ {
		if f := pt.Field(i).Name; !covered[f] {
			t.Errorf("payload field %s has no coverage case: decide, for every identity family, whether it is rendered", f)
		}
	}
}

var identityFamilyNames = []string{"sig", "base", "local", "loose", "cone", "joinside", "aggidx"}

// identityFamilies renders every identity family over the plan of qs, each
// family's renderings in operator, subplan and mask order. Arrangement keys
// contribute their Sig only: Order maps canonical slots back to query ids.
func identityFamilies(t *testing.T, qs []plan.Query) map[string][]string {
	t.Helper()
	g := graphFor(t, qs, mqo.BuildOptions{})
	fam := make(map[string][]string)
	for _, o := range g.Plan.Ops {
		fam["sig"] = append(fam["sig"], o.DedupSignature())
		fam["base"] = append(fam["base"], o.BaseSignature())
		switch o.Kind {
		case mqo.KindJoin:
			fam["joinside"] = append(fam["joinside"], mqo.JoinSideArrangeKey(o, 0).Sig, mqo.JoinSideArrangeKey(o, 1).Sig)
		case mqo.KindAggregate:
			fam["aggidx"] = append(fam["aggidx"], mqo.AggIndexArrangeKey(o).Sig)
		}
	}
	fam["local"], fam["loose"] = mqo.LocalStateSignatures(g), mqo.LooseStateSignatures(g)
	for _, s := range g.Subplans {
		masks := []mqo.Bitset{s.Queries}
		for _, q := range s.Queries.Members() {
			masks = append(masks, mqo.Bit(q))
		}
		for _, m := range masks {
			sig, _ := mqo.RestrictedConeSignature(g, s, m)
			fam["cone"] = append(fam["cone"], sig)
		}
	}
	return fam
}

// find returns the first node of type T in n's tree, in pre-order.
func find[T plan.Node](n plan.Node) T {
	if x, ok := n.(T); ok {
		return x
	}
	for _, c := range n.Children() {
		if x := find[T](c); any(x) != nil {
			return x
		}
	}
	var zero T
	return zero
}

// column returns the position of the named column in n's output.
func column(t *testing.T, n plan.Node, name string) int {
	t.Helper()
	for i, f := range n.Schema() {
		if f.Name == name {
			return i
		}
	}
	t.Fatalf("no column %s in %v", name, n.Schema())
	return -1
}

// columnExpr references the named column of n's output.
func columnExpr(t *testing.T, n plan.Node, name string) expr.Expr {
	t.Helper()
	i := column(t, n, name)
	f := n.Schema()[i]
	return &expr.Column{Index: i, Name: f.Name, Kind: f.Kind}
}
