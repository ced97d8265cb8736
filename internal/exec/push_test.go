package exec

import (
	"math/rand"
	"slices"
	"testing"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

// pushShapes are one-subplan-deep plans of a fan-out join under each kind
// of consumer: an aggregate, a project, and (the join shared by two
// queries) the subplan's output log; under is the join's parent's kind, a
// join for the log.
var pushShapes = []struct {
	name  string
	sqls  []string
	under mqo.Kind
}{
	{"under-aggregate", []string{
		`SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem WHERE p_partkey = l_partkey GROUP BY p_brand`,
	}, mqo.KindAggregate},
	{"under-project", []string{
		`SELECT p_brand, l_quantity + 1 AS q FROM part, lineitem WHERE p_partkey = l_partkey`,
	}, mqo.KindProject},
	{"root", []string{
		`SELECT p_brand, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey`,
		`SELECT p_size, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey`,
	}, mqo.KindJoin},
}

// fanOut runs a shape over n lineitem rows, each of which joins four part
// rows, at pace 1, and returns the runner, the executor holding the join and
// what consumes the join's output: its parent's kind, a join for the log.
func fanOut(t *testing.T, sqls []string, n int) (*Runner, *SubplanExec, mqo.Kind) {
	t.Helper()
	m, order := map[string]string{}, []string{}
	for i, sql := range sqls {
		name := string(rune('a' + i))
		m[name] = sql
		order = append(order, name)
	}
	h := newHarness(t, m, order)
	data := Dataset{}
	for k := 0; k < 40; k++ {
		data["part"] = append(data["part"], value.Row{value.Int(int64(k % 10)), value.Str("b"), value.Int(int64(k))})
	}
	for i := 0; i < n; i++ {
		data["lineitem"] = append(data["lineitem"], value.Row{value.Int(int64(i % 10)), value.Float(1)})
	}
	r, _ := h.run(t, data, nil)
	for _, se := range r.Execs {
		for _, nd := range se.nodes {
			if nd.op.Kind != mqo.KindJoin {
				continue
			}
			if nd.op == se.Sub.Root {
				return r, se, mqo.KindJoin
			}
			return r, se, nd.op.Parents[0].Kind
		}
	}
	t.Fatal("no join in the plan")
	return nil, nil, 0
}

// TestBoundedBuffers pins that what operators keep for an execution's
// passage through a subplan — outlets, join candidate queues, transient
// scratch — does not grow with the execution: a fan-out join's executor
// retains the same capacities after 1 000 input rows (4 000 joined) as
// after 100 000 (400 000 joined), whatever consumes the join's output.
func TestBoundedBuffers(t *testing.T) {
	for _, shape := range pushShapes {
		t.Run(shape.name, func(t *testing.T) {
			var tuples, values [2]int
			for i, n := range []int{1000, 100000} {
				r, se, under := fanOut(t, shape.sqls, n)
				if under != shape.under {
					t.Fatalf("the join's output goes to a %v", under)
				}
				if got := r.Execs[se.Sub.ID].TotalWork().Output; got < int64(4*n) {
					t.Fatalf("%d rows: the subplan output %d tuples, want at least the %d joined", n, got, 4*n)
				}
				tuples[i], values[i] = se.staged()
			}
			if tuples[0] != tuples[1] || values[0] != values[1] {
				t.Errorf("operators retain %d tuples and %d values after 1 000 rows, %d and %d after 100 000",
					tuples[0], values[0], tuples[1], values[1])
			}
		})
	}
}

// TestRunOnceSteadyStateAllocs pins that the firing machinery — opening
// and closing sources, pushing through operators, finishing them and
// handing on to the log — allocates nothing once an executor is warm: a
// join→aggregate and a join→project subplan fire again after their data,
// with nothing new arrived, at zero allocations.
func TestRunOnceSteadyStateAllocs(t *testing.T) {
	for _, shape := range pushShapes[:2] {
		t.Run(shape.name, func(t *testing.T) {
			_, se, _ := fanOut(t, shape.sqls, 3000)
			if se.Batches() == 0 {
				t.Fatal("the warm-up read nothing")
			}
			se.RunOnce()
			if avg := testing.AllocsPerRun(100, func() { se.RunOnce() }); avg != 0 {
				t.Errorf("a steady-state RunOnce allocated %.2f times", avg)
			}
		})
	}
}

// TestRootAppendsKeepSegments pins why a root hands on logChunk tuples at
// a time: a log appended to that way, execution by execution, is cut into
// exactly the segments one Append per execution makes — small executions
// first, while segments are still growing, and ones larger than a segment
// after — so a parent subplan's reader, which chunks within segments,
// reads the chunks it always did.
func TestRootAppendsKeepSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		whole, chunked := buffer.NewLog("whole"), buffer.NewLog("chunked")
		b := opBase{out: outlet{size: logChunk, log: chunked}}
		for e := 0; e < 1+rng.Intn(8); e++ {
			n := rng.Intn(40)
			if rng.Intn(3) == 0 {
				n = rng.Intn(5000)
			}
			out := make([]delta.Tuple, n)
			for i := range out {
				out[i] = InsertTuple(value.Row{value.Int(int64(i))})
			}
			whole.Append(out...)
			for _, tup := range out {
				if b.put(tup) {
					b.out.flush()
				}
			}
			b.out.flush()
		}
		if got, want := segments(chunked), segments(whole); !slices.Equal(got, want) {
			t.Fatalf("trial %d: segments %v, one Append per execution makes %v", trial, got, want)
		}
	}
}

// segments lists the lengths of a log's segments in order.
func segments(l *buffer.Log) []int {
	var ns []int
	for p := 0; p < l.Len(); {
		n := l.Span(p).N
		ns = append(ns, n)
		p += n
	}
	return ns
}
