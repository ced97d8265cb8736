package plan_test

import (
	"testing"

	"ishare/internal/plan"
	"ishare/internal/tpch"
)

// TestWidthIsSchemaLength checks, on every operator of the 22 TPC-H queries
// and their variants, that the width Validate checks column indexes against
// is the length of the operator's schema.
func TestWidthIsSchemaLength(t *testing.T) {
	cat, err := tpch.NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		nodes++
		if got, want := plan.Width(n), len(n.Schema()); got != want {
			t.Errorf("%s: width %d, schema has %d columns", n.Describe(), got, want)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, variants := range []bool{false, true} {
		queries, err := tpch.Bind(tpch.All(), cat, variants)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if err := plan.Validate(q.Root); err != nil {
				t.Errorf("%s: %v", q.Name, err)
			}
			walk(q.Root)
		}
	}
	if nodes == 0 {
		t.Fatal("no operator walked")
	}
}
