package sched

import (
	"ishare/internal/cost"
	"ishare/internal/exec"
)

// SetExecOptions replaces the scheduler's runner configuration between
// windows (before the first Tick included). Test-only on purpose: Config has
// no field for the executor's differential toggles, and the invariance tests
// are the only callers that need the off-paths.
func (s *Scheduler) SetExecOptions(o exec.Options) { s.runner.SetOptions(o) }

// Calibration returns the correction factors of the scheduler's model.
func (s *Scheduler) Calibration() cost.Calibration { return s.model.Calibration() }

// RunnerData returns the runner's Data mirror, which a scheduler's private
// runner keeps nil.
func (s *Scheduler) RunnerData() exec.DeltaDataset { return s.runner.Data }
