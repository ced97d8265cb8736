package opt

import (
	"reflect"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	queries, ds := bindSet(t, "Q1", "Q6", "Q15")
	abs, err := AbsoluteConstraints(queries, []float64{0.5, 0.5, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Plan(IShare, Request{Queries: queries, Constraints: abs, MaxPace: 20})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Save(p)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data, queries)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Approach != p.Approach || len(loaded.Jobs) != len(p.Jobs) {
		t.Fatalf("shape mismatch: %v/%d vs %v/%d",
			loaded.Approach, len(loaded.Jobs), p.Approach, len(p.Jobs))
	}
	for ji := range p.Jobs {
		if len(loaded.Jobs[ji].Graph.Subplans) != len(p.Jobs[ji].Graph.Subplans) {
			t.Errorf("job %d: %d subplans vs %d", ji,
				len(loaded.Jobs[ji].Graph.Subplans), len(p.Jobs[ji].Graph.Subplans))
		}
		// Pace multiset must survive (IDs may be renumbered).
		a := append([]int(nil), p.Jobs[ji].Paces...)
		b := append([]int(nil), loaded.Jobs[ji].Paces...)
		sortInts(a)
		sortInts(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("job %d paces differ: %v vs %v", ji, a, b)
		}
	}
	// The loaded plan executes and matches the original's measured work.
	o1, err := Execute(p, ds, len(queries), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Execute(loaded, ds, len(queries), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o1.TotalWork != o2.TotalWork {
		t.Errorf("loaded plan work %d differs from original %d", o2.TotalWork, o1.TotalWork)
	}
}

func TestSaveLoadNoSharePlan(t *testing.T) {
	queries, ds := bindSet(t, "Q6", "Q22")
	abs, err := AbsoluteConstraints(queries, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Plan(NoShareUniform, Request{Queries: queries, Constraints: abs, MaxPace: 10})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Save(p)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(loaded.Jobs))
	}
	if _, err := Execute(loaded, ds, len(queries), 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruptState(t *testing.T) {
	queries, _ := bindSet(t, "Q6")
	if _, err := Load([]byte("{"), queries); err == nil {
		t.Error("corrupt JSON accepted")
	}
	if _, err := Load([]byte(`{"jobs":[{"query_ids":[9],"paces":{}}]}`), queries); err == nil {
		t.Error("out-of-range query id accepted")
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
