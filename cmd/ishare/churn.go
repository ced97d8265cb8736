package main

import (
	"fmt"
	"io"
	"math/rand"

	"ishare"
)

// runChurn demonstrates online admission: a session serves three aggregate
// queries over a stream of windows, then a fourth is admitted mid-stream and
// one of the originals is retired. The admission rebuilds the shared events
// scan, whose query set grows, and the aggregation the newcomer shares with
// totals, and replays history into them; counts' aggregation, which reads the
// rebuilt scan but serves no new query, keeps its executor. It prints how many subplan executors were carried over and how
// many rebuilt and replayed, and the warm pace search's simulation count
// against a cold from-scratch plan of the same final query set.
func runChurn(out io.Writer, seed int64) error {
	newEngine := func() *ishare.Engine {
		e := ishare.NewEngine()
		e.MustCreateTable(ishare.TableSchema{
			Name: "events",
			Columns: []ishare.Column{
				{Name: "user_id", Type: ishare.Int, Distinct: 50, Min: 0, Max: 49},
				{Name: "region", Type: ishare.Int, Distinct: 4, Min: 0, Max: 3},
				{Name: "amount", Type: ishare.Float},
			},
			ExpectedRows: 4000,
		})
		e.MustCreateTable(ishare.TableSchema{
			Name: "clicks",
			Columns: []ishare.Column{
				{Name: "page", Type: ishare.Int, Distinct: 20, Min: 0, Max: 19},
				{Name: "ms", Type: ishare.Int},
			},
			ExpectedRows: 4000,
		})
		return e
	}
	const (
		totalsSQL   = "SELECT user_id, SUM(amount) FROM events GROUP BY user_id"
		countsSQL   = "SELECT region, COUNT(*) FROM events GROUP BY region"
		clicksSQL   = "SELECT page, COUNT(*), SUM(ms) FROM clicks GROUP BY page"
		bigSpendSQL = "SELECT user_id, SUM(amount) FROM events WHERE amount > 50 GROUP BY user_id"
	)
	eng := newEngine()
	eng.MustAddQuery("totals", totalsSQL, 0.5)
	eng.MustAddQuery("counts", countsSQL, 0.5)
	eng.MustAddQuery("clickstats", clicksSQL, 0.5)
	sess, err := eng.StartSession(ishare.Options{})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	window := func() map[string][]ishare.Row {
		events := make([]ishare.Row, 1000)
		for i := range events {
			events[i] = ishare.Row{rng.Intn(50), rng.Intn(4), float64(rng.Intn(100))}
		}
		clicks := make([]ishare.Row, 1000)
		for i := range clicks {
			clicks[i] = ishare.Row{rng.Intn(20), rng.Intn(5000)}
		}
		return map[string][]ishare.Row{"events": events, "clicks": clicks}
	}

	for w := 0; w < 2; w++ {
		work, err := sess.Step(window())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "window %d: %d work units, queries %v\n", w, work, sess.QueryNames())
	}

	stats, err := sess.Admit("bigspend", bigSpendSQL, 0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "admitted bigspend into slot %d: %d/%d subplan executors carried over, %d rebuilt and caught up over %d window replays, %d shared arrangements adopted\n",
		stats.Slot, stats.MatchedSubplans, stats.MatchedSubplans+stats.FreshSubplans, stats.FreshSubplans, stats.Replayed, stats.SharedArrangements)

	// Cold comparison: a fresh session over the same three queries pays the
	// full pace search; the admission above reused the memoized cost model.
	coldEng := newEngine()
	coldEng.MustAddQuery("totals", totalsSQL, 0.5)
	coldEng.MustAddQuery("counts", countsSQL, 0.5)
	coldEng.MustAddQuery("clickstats", clicksSQL, 0.5)
	coldEng.MustAddQuery("bigspend", bigSpendSQL, 0.5)
	cold, err := coldEng.StartSession(ishare.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pace search: %d simulations warm (memo seeded %d entries) vs %d cold, pace vector %v\n",
		stats.Sims, stats.MemoSeeded, cold.SearchSims(), stats.Paces)

	if _, err := sess.Step(window()); err != nil {
		return err
	}
	rows, err := sess.Results("bigspend")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "window 2: bigspend sees %d groups over the full 3-window history\n", len(rows))

	if stats, err = sess.Retire("counts"); err != nil {
		return err
	}
	fmt.Fprintf(out, "retired counts (slot %d freed for reuse); queries now %v\n", stats.Slot, sess.QueryNames())
	if _, err := sess.Step(window()); err != nil {
		return err
	}
	for _, name := range sess.QueryNames() {
		rows, err := sess.Results(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "final: %s -> %d rows\n", name, len(rows))
	}
	return nil
}
