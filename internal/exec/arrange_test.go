package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ishare/internal/mqo"
	"ishare/internal/plan"
)

// perQueryGraph rebuilds the harness queries with every query in its own
// sharing class: the decomposition carries one subplan chain per query, so
// any state reuse between them can only come from the arrangement registry.
func perQueryGraph(t testing.TB, queries []plan.Query) *mqo.Graph {
	t.Helper()
	sp, err := mqo.BuildWithOptions(queries, mqo.BuildOptions{
		Classes: func(sig string, q int) int { return q },
	})
	if err != nil {
		t.Fatalf("BuildWithOptions: %v", err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return g
}

// reportsEqual compares two reports modulo wall-clock time.
func reportsEqual(a, b *Report) bool {
	ac, bc := *a, *b
	ac.Wall, bc.Wall = 0, 0
	return reflect.DeepEqual(ac, bc)
}

// TestRegistryRefcountProperty drives the registry through random
// attach/release/toggle sequences while mirroring the handle count
// externally, and asserts the refcount invariant (checkHandles) after every
// step: over the two arrangement kinds, then over all three kinds of state.
// Once every handle is released, nothing may stay live.
func TestRegistryRefcountProperty(t *testing.T) {
	for _, kinds := range []int{int(truthState), int(numKinds)} {
		for seed := int64(0); seed < 5; seed++ {
			checkRegistryRefcounts(t, kinds, seed)
		}
	}
}

func checkRegistryRefcounts(t *testing.T, kinds int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	reg := NewRegistry(true)
	var handles []shared
	// "" is a private (never shared) key; the rest collide on purpose so
	// attaches exercise both the build and the reuse path. Each kind of
	// state has its own key namespace.
	sigs := []string{"", "", "sigA", "sigB", "sigC"}
	attach := func() {
		sig := sigs[rng.Intn(len(sigs))]
		handles = append(handles, reg.attach(stateKind(rng.Intn(kinds)), sig))
	}
	release := func() {
		if len(handles) == 0 {
			return
		}
		i := rng.Intn(len(handles))
		reg.release(handles[i])
		handles[i] = handles[len(handles)-1]
		handles = handles[:len(handles)-1]
	}
	for step := 0; step < 3000; step++ {
		switch rng.Intn(7) {
		case 0, 1, 2:
			attach()
		case 3, 4, 5:
			release()
		case 6:
			reg.SetShare(rng.Intn(2) == 0)
		}
		if err := reg.checkHandles(len(handles)); err != nil {
			t.Fatalf("%d kinds, seed %d step %d: %v", kinds, seed, step, err)
		}
	}
	for len(handles) > 0 {
		release()
	}
	if err := reg.checkHandles(0); err != nil {
		t.Fatalf("%d kinds, seed %d after drain: %v", kinds, seed, err)
	}
	st := reg.Stats()
	if st.Live != 0 || st.Handles != 0 {
		t.Fatalf("%d kinds, seed %d: %d arrangements (%d handles) retained after all sharers released", kinds, seed, st.Live, st.Handles)
	}
	if st.Built != st.Freed {
		t.Fatalf("%d kinds, seed %d: built %d arrangements but freed only %d", kinds, seed, st.Built, st.Freed)
	}
	if kinds > int(truthState) {
		if tr := reg.TruthStats(); tr.Live != 0 || tr.Bits != 0 {
			t.Fatalf("%d kinds, seed %d: truth columns retained after all sharers released: %+v", kinds, seed, tr)
		}
	}
}

// arrangeSQLs builds kJoin identical join queries and kAgg identical
// aggregate queries — the sharing population the tests below run.
func arrangeSQLs(kJoin, kAgg int) (map[string]string, []string) {
	sqls := map[string]string{}
	var order []string
	for i := 0; i < kJoin; i++ {
		name := fmt.Sprintf("j%d", i)
		sqls[name] = "SELECT p_brand, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey"
		order = append(order, name)
	}
	for i := 0; i < kAgg; i++ {
		name := fmt.Sprintf("a%d", i)
		sqls[name] = "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey"
		order = append(order, name)
	}
	return sqls, order
}

func arrangeData() DeltaDataset {
	return InsertStream(Dataset{
		"lineitem": lineitemRows(
			[2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30}, [2]int64{1, 5},
			[2]int64{4, 40}, [2]int64{2, 7}, [2]int64{5, 50}, [2]int64{3, 9},
			[2]int64{6, 60}, [2]int64{1, 2}, [2]int64{7, 70}, [2]int64{4, 11},
		),
		"part": partRows(
			[3]interface{}{1, "azure", 5}, [3]interface{}{2, "brick", 15},
			[3]interface{}{3, "coral", 25}, [3]interface{}{4, "denim", 35},
			[3]interface{}{5, "ecru", 45},
		),
	})
}

// TestArrangementSharingInvariance runs the same per-query-class graph with
// sharing on and off: results and the full work report must be
// byte-identical (sharing is purely physical), while the shared registry
// must actually multi-use its arrangements and hold fewer resident entries.
func TestArrangementSharingInvariance(t *testing.T) { overOptions(t, testArrangementSharingInvariance) }

func testArrangementSharingInvariance(t *testing.T) {
	const k = 3
	sqls, order := arrangeSQLs(k, k)
	h := newHarness(t, sqls, order)
	g := perQueryGraph(t, h.queries)
	data := arrangeData()
	paces := make([]int, len(g.Subplans))
	for i := range paces {
		paces[i] = 1 + i%3 // differently paced sharers stress the MVCC index
	}

	run := func(share bool) (*Runner, *Report) {
		o := h.opts
		o.NoShare = !share
		r, err := New(g, data, o)
		if err != nil {
			t.Fatalf("share=%v: %v", share, err)
		}
		rep, err := r.Run(paces)
		if err != nil {
			t.Fatalf("share=%v: %v", share, err)
		}
		return r, rep
	}
	rOn, repOn := run(true)
	rOff, repOff := run(false)

	if !reportsEqual(repOn, repOff) {
		t.Errorf("work report differs with sharing on/off:\n on=%+v\noff=%+v", repOn, repOff)
	}
	for q := range h.queries {
		got, want := rOn.SortedResults(q), rOff.SortedResults(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d results differ with sharing on/off:\n on=%v\noff=%v", q, got, want)
		}
	}
	for _, r := range []*Runner{rOn, rOff} {
		if err := r.CheckArrangements(); err != nil {
			t.Error(err)
		}
	}

	on, off := rOn.ArrangeStats(), rOff.ArrangeStats()
	// k join queries share one arrangement per build side, k aggregates
	// share one group index: 3 multi-use arrangements, k-1 reuses each.
	if on.MultiUse != 3 {
		t.Errorf("shared run: MultiUse = %d, want 3 (join left, join right, agg index): %+v", on.MultiUse, on)
	}
	if want := int64(3 * (k - 1)); on.SharedAttaches != want {
		t.Errorf("shared run: SharedAttaches = %d, want %d: %+v", on.SharedAttaches, want, on)
	}
	if off.MultiUse != 0 || off.SharedAttaches != 0 {
		t.Errorf("unshared run reused arrangements: %+v", off)
	}
	if on.Handles != off.Handles {
		t.Errorf("handle count depends on sharing: on=%d off=%d", on.Handles, off.Handles)
	}
	// Resident index entries must drop by the sharing factor.
	if on.Entries*int64(k) != off.Entries {
		t.Errorf("resident entries: shared=%d unshared=%d, want exactly %dx reduction", on.Entries, off.Entries, k)
	}
}

// TestParallelSharedArrangements runs wave-parallel workers over subplans
// that share arrangements (the lock-order and MVCC dedup paths race under
// -race here) and requires byte-identical reports and results at every
// worker count, in every identity-index regime.
func TestParallelSharedArrangements(t *testing.T) {
	IndexRegimes(t, func(t *testing.T) { overOptions(t, parallelSharedArrangements) })
}

func parallelSharedArrangements(t *testing.T) {
	const k = 4
	sqls, order := arrangeSQLs(k, k)
	h := newHarness(t, sqls, order)
	g := perQueryGraph(t, h.queries)
	data := arrangeData()
	paces := make([]int, len(g.Subplans))
	for i := range paces {
		paces[i] = 1 + i%4
	}

	var ref *Report
	var refResults [][]string
	for _, workers := range []int{1, 4} {
		r, err := New(g, data, h.opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.RunParallel(paces, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CheckArrangements(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if st := r.ArrangeStats(); st.MultiUse == 0 {
			t.Fatalf("workers=%d: no arrangement is multi-use, test exercises nothing: %+v", workers, st)
		}
		results := make([][]string, len(h.queries))
		for q := range h.queries {
			results[q] = r.SortedResults(q)
		}
		if ref == nil {
			ref, refResults = rep, results
			continue
		}
		if !reportsEqual(ref, rep) {
			t.Errorf("workers=%d: report differs from workers=1:\n got=%+v\nwant=%+v", workers, rep, ref)
		}
		if !reflect.DeepEqual(results, refResults) {
			t.Errorf("workers=%d: results differ from workers=1", workers)
		}
	}
}

// TestGraftArrangementLifecycle covers the registry across plan revisions:
// an admitted twin warm-attaches to the live arrangement instead of
// rebuilding (ArrangementsShared), retiring the last sharers drops the
// arrangements from the registry at once (ArrangementsFreed), and the
// refcount invariant holds after every step.
func TestGraftArrangementLifecycle(t *testing.T) { overOptions(t, testGraftArrangementLifecycle) }

func testGraftArrangementLifecycle(t *testing.T) {
	sqls := map[string]string{
		"agg":   "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
		"join":  "SELECT p_brand, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey",
		"join2": "SELECT p_brand, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey",
	}
	h := newHarness(t, sqls, []string{"agg", "join", "join2"})
	build := func(qs ...int) *mqo.Graph {
		sel := make([]plan.Query, len(qs))
		for i, q := range qs {
			sel[i] = h.queries[q]
		}
		return perQueryGraph(t, sel)
	}
	win := func(k int64) DeltaDataset {
		return InsertStream(Dataset{
			"lineitem": lineitemRows([2]int64{k, 10 * k}, [2]int64{k + 1, 3}),
			"part":     partRows([3]interface{}{int(k), "brand", int(k)}),
		})
	}
	runWindow := func(r *Runner, g *mqo.Graph, arrivals DeltaDataset) {
		r.StartWindow(arrivals)
		r.ArriveWindow(1, 1)
		for id := range g.Subplans {
			r.RunSubplan(id)
		}
	}

	gAB := build(0, 1)
	r, err := New(gAB, DeltaDataset{}, harnessOpts)
	if err != nil {
		t.Fatal(err)
	}
	runWindow(r, gAB, win(1))
	base := r.ArrangeStats()

	// Admit join2, identical to join: its rebuilt executors must re-key
	// onto the live build sides (2 warm attaches, 0 new join builds).
	gABC := build(0, 1, 2)
	gs, err := r.Graft(gABC, GraftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gs.ArrangementsShared != 2 {
		t.Errorf("admit twin: ArrangementsShared = %d, want 2 (both join sides): %+v", gs.ArrangementsShared, gs)
	}
	if gs.ArrangementsFreed != 0 {
		t.Errorf("admit twin: ArrangementsFreed = %d, want 0: %+v", gs.ArrangementsFreed, gs)
	}
	if err := r.CheckArrangements(); err != nil {
		t.Fatal(err)
	}
	if st := r.ArrangeStats(); st.Built != base.Built {
		t.Errorf("admit twin rebuilt arrangements: built %d -> %d", base.Built, st.Built)
	}
	runWindow(r, gABC, win(2))

	// Retire both join sharers: the two build sides lose their last
	// holders and leave the registry with the graft.
	before := r.ArrangeStats()
	gA := build(0)
	gs, err = r.Graft(gA, GraftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gs.ArrangementsFreed != 2 {
		t.Errorf("retire joins: ArrangementsFreed = %d, want 2: %+v", gs.ArrangementsFreed, gs)
	}
	if err := r.CheckArrangements(); err != nil {
		t.Fatal(err)
	}
	if st := r.ArrangeStats(); st.Live != before.Live-2 {
		t.Errorf("retire joins: %d live arrangements, want %d: %+v", st.Live, before.Live-2, st)
	}
	runWindow(r, gA, win(3))
	if err := r.CheckArrangements(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSharedBuild measures the sharing win the registry exists for: k
// per-class twins of one join each ingest the same stream, so unshared mode
// builds k copies of every build side while shared mode builds one and
// serves k-1 warm attaches. Modeled work is identical in both modes (the
// invariance tests above prove it); allocated bytes and resident entries
// are what drop.
func BenchmarkSharedBuild(b *testing.B) {
	for _, k := range []int{2, 8} {
		sqls, order := arrangeSQLs(k, 0)
		h := newHarness(b, sqls, order)
		g := perQueryGraph(b, h.queries)
		li := make([][2]int64, 2000)
		for i := range li {
			li[i] = [2]int64{int64(i), int64(i % 97)}
		}
		data := InsertStream(Dataset{"lineitem": lineitemRows(li...), "part": nil})
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1
		}
		for _, mode := range []struct {
			name  string
			share bool
		}{{"shared", true}, {"unshared", false}} {
			b.Run(fmt.Sprintf("%s/k=%d", mode.name, k), func(b *testing.B) {
				var entries int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := New(g, data, Options{NoShare: !mode.share})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := r.Run(paces); err != nil {
						b.Fatal(err)
					}
					entries = r.ArrangeStats().Entries
				}
				b.ReportMetric(float64(entries), "entries")
			})
		}
	}
}
