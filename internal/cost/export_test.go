package cost

// Outputs materializes an Evaluation's per-subplan output profiles for the
// tests that compare them bit for bit. The Evaluation must be its model's
// latest or one the model could still evaluate relative to.
func (e *Evaluation) Outputs() []Profile { return e.model.outputs(e) }

// MemoEntries counts the entries in the model's memo tables.
func (m *Model) MemoEntries() int {
	n := 0
	for i := range m.memo {
		n += len(m.memo[i].entries)
	}
	return n
}
