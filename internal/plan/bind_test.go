package plan

import (
	"strings"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/value"
)

// testCatalog builds a minimal TPC-H-shaped catalog for binder tests.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	add := func(name string, cols ...catalog.Column) {
		if err := c.Add(&catalog.Table{Name: name, Columns: cols, Stats: catalog.TableStats{RowCount: 100}}); err != nil {
			t.Fatal(err)
		}
	}
	add("lineitem",
		catalog.Column{Name: "l_partkey", Type: value.KindInt},
		catalog.Column{Name: "l_quantity", Type: value.KindFloat},
		catalog.Column{Name: "l_extendedprice", Type: value.KindFloat},
	)
	add("part",
		catalog.Column{Name: "p_partkey", Type: value.KindInt},
		catalog.Column{Name: "p_brand", Type: value.KindString},
		catalog.Column{Name: "p_size", Type: value.KindInt},
	)
	add("partsupp",
		catalog.Column{Name: "ps_partkey", Type: value.KindInt},
		catalog.Column{Name: "ps_availqty", Type: value.KindInt},
	)
	return c
}

func mustBind(t *testing.T, sql string, c *catalog.Catalog) Node {
	t.Helper()
	n, err := ParseAndBind(sql, c)
	if err != nil {
		t.Fatalf("ParseAndBind(%q): %v", sql, err)
	}
	if err := Validate(n); err != nil {
		t.Fatalf("Validate: %v\n%s", err, Explain(n))
	}
	return n
}

func TestBindSimpleProjection(t *testing.T) {
	n := mustBind(t, "SELECT l_partkey, l_quantity FROM lineitem", testCatalog(t))
	p, ok := n.(*Project)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	s := p.Schema()
	if s[0].Name != "l_partkey" || s[1].Name != "l_quantity" {
		t.Errorf("schema = %v", s)
	}
	if _, ok := p.Input.(*Scan); !ok {
		t.Errorf("input = %T, want Scan", p.Input)
	}
}

func TestBindPushdownSelect(t *testing.T) {
	n := mustBind(t, "SELECT p_partkey FROM part WHERE p_size > 10", testCatalog(t))
	p := n.(*Project)
	sel, ok := p.Input.(*Select)
	if !ok {
		t.Fatalf("expected pushed-down select, got %T", p.Input)
	}
	if _, ok := sel.Input.(*Scan); !ok {
		t.Errorf("select input = %T", sel.Input)
	}
}

func TestBindJoin(t *testing.T) {
	n := mustBind(t, `SELECT p_brand, l_quantity FROM part, lineitem
		WHERE p_partkey = l_partkey AND p_size = 15`, testCatalog(t))
	p := n.(*Project)
	j, ok := p.Input.(*Join)
	if !ok {
		t.Fatalf("expected join, got %T:\n%s", p.Input, Explain(n))
	}
	if len(j.LeftKeys) != 1 || len(j.RightKeys) != 1 {
		t.Fatalf("keys = %v/%v", j.LeftKeys, j.RightKeys)
	}
	// p_size pushdown goes under the left side.
	if _, ok := j.Left.(*Select); !ok {
		t.Errorf("left = %T, want pushed Select", j.Left)
	}
	if _, ok := j.Right.(*Scan); !ok {
		t.Errorf("right = %T, want Scan", j.Right)
	}
}

func TestBindAggregate(t *testing.T) {
	n := mustBind(t, `SELECT l_partkey, SUM(l_quantity) AS sum_quantity
		FROM lineitem GROUP BY l_partkey`, testCatalog(t))
	p := n.(*Project)
	a, ok := p.Input.(*Aggregate)
	if !ok {
		t.Fatalf("expected aggregate, got %T", p.Input)
	}
	if len(a.GroupBy) != 1 || len(a.Aggs) != 1 {
		t.Fatalf("groups=%d aggs=%d", len(a.GroupBy), len(a.Aggs))
	}
	if a.Aggs[0].Func != AggSum {
		t.Errorf("agg func = %v", a.Aggs[0].Func)
	}
	// The aggregate output column is named after the select alias so
	// subquery consumers can reference it.
	if a.Aggs[0].Name != "sum_quantity" {
		t.Errorf("agg name = %q", a.Aggs[0].Name)
	}
	s := p.Schema()
	if s[1].Name != "sum_quantity" {
		t.Errorf("schema = %v", s)
	}
}

func TestBindAggWithoutGroupBy(t *testing.T) {
	n := mustBind(t, "SELECT COUNT(*), SUM(l_quantity) FROM lineitem", testCatalog(t))
	a := n.(*Project).Input.(*Aggregate)
	if len(a.GroupBy) != 0 || len(a.Aggs) != 2 {
		t.Fatalf("groups=%d aggs=%d", len(a.GroupBy), len(a.Aggs))
	}
	if a.Aggs[0].Func != AggCount || a.Aggs[0].Arg != nil {
		t.Errorf("count spec = %+v", a.Aggs[0])
	}
}

func TestBindAggExpression(t *testing.T) {
	// Expressions over aggregates become a Project above the Aggregate.
	n := mustBind(t, `SELECT SUM(l_extendedprice) / SUM(l_quantity) AS avg_price
		FROM lineitem`, testCatalog(t))
	p := n.(*Project)
	a := p.Input.(*Aggregate)
	if len(a.Aggs) != 2 {
		t.Fatalf("aggs = %d, want 2", len(a.Aggs))
	}
	if p.Schema()[0].Name != "avg_price" {
		t.Errorf("schema = %v", p.Schema())
	}
}

func TestBindDedupAggregates(t *testing.T) {
	n := mustBind(t, `SELECT SUM(l_quantity), SUM(l_quantity) + 1 FROM lineitem`, testCatalog(t))
	a := n.(*Project).Input.(*Aggregate)
	if len(a.Aggs) != 1 {
		t.Errorf("identical aggregates not deduplicated: %d", len(a.Aggs))
	}
}

func TestBindHaving(t *testing.T) {
	n := mustBind(t, `SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem
		GROUP BY l_partkey HAVING SUM(l_quantity) > 100`, testCatalog(t))
	p := n.(*Project)
	sel, ok := p.Input.(*Select)
	if !ok {
		t.Fatalf("expected HAVING select, got %T", p.Input)
	}
	if _, ok := sel.Input.(*Aggregate); !ok {
		t.Errorf("select input = %T", sel.Input)
	}
}

func TestBindPaperQueryA(t *testing.T) {
	sql := `SELECT SUM(agg_l.sum_quantity) AS total_sum_quantity
		FROM part p, (SELECT SUM(l_quantity) AS sum_quantity
			FROM lineitem GROUP BY l_partkey) agg_l
		WHERE p_partkey == l_partkey`
	n := mustBind(t, sql, testCatalog(t))
	text := Explain(n)
	for _, want := range []string{"Join", "Aggregate", "Scan part", "Scan lineitem"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %q:\n%s", want, text)
		}
	}
}

func TestBindPaperQueryB(t *testing.T) {
	sql := `SELECT ps_partkey FROM partsupp ps,
		(SELECT AVG(agg_l.sum_quantity) AS avg_quantity FROM part p,
			(SELECT SUM(l_quantity) AS sum_quantity FROM lineitem GROUP BY l_partkey) agg_l
			WHERE p_partkey = l_partkey AND p_brand == 'Brand#23' AND p_size == 15) x
		WHERE ps.ps_availqty < avg_quantity`
	n := mustBind(t, sql, testCatalog(t))
	text := Explain(n)
	// The outer join between partsupp and the scalar subquery has no equi
	// keys: it must be a cross join followed by a residual select.
	if !strings.Contains(text, "Join") {
		t.Errorf("plan missing join:\n%s", text)
	}
	if !strings.Contains(text, "ps_availqty") {
		t.Errorf("plan missing residual predicate:\n%s", text)
	}
}

func TestBindErrors(t *testing.T) {
	c := testCatalog(t)
	bad := []string{
		"SELECT nosuch FROM lineitem",
		"SELECT l_partkey FROM nosuch",
		"SELECT x.l_partkey FROM lineitem",
		"SELECT l_partkey FROM lineitem, part WHERE p_partkey = nosuch",
		"SELECT l_quantity FROM lineitem GROUP BY l_partkey",                // not a group key
		"SELECT l_partkey FROM lineitem HAVING SUM(l_quantity) > 1",         // having w/o group/agg is fine? no: requires agg — accepted
		"SELECT p_partkey, l_partkey FROM part, lineitem WHERE p_brand = 3", // type error
	}
	for _, sql := range bad[:5] {
		if _, err := ParseAndBind(sql, c); err == nil {
			t.Errorf("ParseAndBind(%q) accepted invalid query", sql)
		}
	}
	// Type errors are caught by Validate.
	n, err := ParseAndBind(bad[6], c)
	if err == nil {
		if err := Validate(n); err == nil {
			t.Error("type error not caught")
		}
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	c := catalog.New()
	for _, name := range []string{"t1", "t2"} {
		if err := c.Add(&catalog.Table{Name: name, Columns: []catalog.Column{{Name: "x", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseAndBind("SELECT x FROM t1, t2", c); err == nil {
		t.Error("ambiguous column accepted")
	}
	if _, err := ParseAndBind("SELECT t1.x FROM t1, t2 WHERE t1.x = t2.x", c); err != nil {
		t.Errorf("qualified resolution failed: %v", err)
	}
}

func TestExplainAndOperators(t *testing.T) {
	n := mustBind(t, `SELECT p_brand, SUM(l_quantity) FROM part, lineitem
		WHERE p_partkey = l_partkey GROUP BY p_brand`, testCatalog(t))
	if got := Operators(n); got != 5 { // project, agg, join, scan, scan
		t.Errorf("Operators = %d:\n%s", got, Explain(n))
	}
	text := Explain(n)
	if !strings.HasPrefix(text, "Project") {
		t.Errorf("explain = %q", text)
	}
}

func TestBlocking(t *testing.T) {
	c := testCatalog(t)
	agg := mustBind(t, "SELECT SUM(l_quantity) FROM lineitem", c).(*Project).Input
	if !Blocking(agg) {
		t.Error("aggregate must be blocking")
	}
	if Blocking(&Scan{}) {
		t.Error("scan must not be blocking")
	}
}
