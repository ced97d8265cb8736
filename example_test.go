package ishare_test

import (
	"fmt"

	"ishare"
)

// ExampleSession is the README's "Admitting queries at runtime" snippet:
// a query admitted onto a live session sees the whole stepped history.
func ExampleSession() {
	eng := ishare.NewEngine()
	eng.MustCreateTable(ishare.TableSchema{
		Name: "orders",
		Columns: []ishare.Column{
			{Name: "o_customer", Type: ishare.String, Distinct: 3},
			{Name: "o_amount", Type: ishare.Float},
		},
		ExpectedRows: 4,
	})
	eng.MustAddQuery("orders", "SELECT COUNT(*) AS n FROM orders", 0.5)
	window0 := map[string][]ishare.Row{"orders": {{"acme", 80.0}, {"globex", 20.0}}}
	window1 := map[string][]ishare.Row{"orders": {{"acme", 60.0}, {"initech", 90.0}}}

	sess, _ := eng.StartSession(ishare.Options{})
	sess.Step(window0)              // ingest a trigger window
	st, _ := sess.Admit("bigspend", // admit onto the live plan
		"SELECT o_customer, SUM(o_amount) FROM orders WHERE o_amount > 50 GROUP BY o_customer", 1.0)
	// executors carried over and rebuilt, windows replayed
	fmt.Println(st.MatchedSubplans, st.FreshSubplans, st.Replayed)
	sess.Step(window1)
	rows, _ := sess.Results("bigspend") // full history, not just window1
	fmt.Println(rows)
	_, _ = sess.Retire("bigspend")
	// Output:
	// 0 3 3
	// [[acme 140] [initech 90]]
}
