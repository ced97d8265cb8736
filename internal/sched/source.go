package sched

import "ishare/internal/exec"

// Source supplies each trigger window's arriving deltas.
type Source interface {
	// WindowData returns the deltas arriving during window i (0-based),
	// in arrival order. The scheduler does not mutate the result.
	WindowData(i int) exec.DeltaDataset
}

// Replay replays the same dataset every window — the recurring-query shape
// of the paper's experiments: the same daily load arriving again while
// operator state keeps accumulating.
type Replay struct {
	Data exec.DeltaDataset
}

// WindowData returns the replayed dataset for any window.
func (r Replay) WindowData(int) exec.DeltaDataset { return r.Data }

// Slices splits one dataset evenly across N windows, preserving arrival
// order (and therefore the streams' prefix consistency): window i gets rows
// (i·len/N, (i+1)·len/N] of every stream, so driving all N windows consumes
// exactly the original dataset. A window at or past N — every window when
// N < 1 — is empty, so a run longer than N windows idles after the data.
type Slices struct {
	Data exec.DeltaDataset
	N    int
}

// WindowData returns window i's slice of every stream.
func (s Slices) WindowData(i int) exec.DeltaDataset {
	out := make(exec.DeltaDataset, len(s.Data))
	for name, ts := range s.Data {
		if i < 0 || i >= s.N {
			out[name] = ts[:0:0]
			continue
		}
		out[name] = ts[len(ts)*i/s.N : len(ts)*(i+1)/s.N]
	}
	return out
}
