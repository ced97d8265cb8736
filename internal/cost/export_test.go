package cost

// Outputs exposes an Evaluation's per-subplan output profiles to the tests
// that compare them bit for bit.
func (e *Evaluation) Outputs() []Profile { return e.outs }
