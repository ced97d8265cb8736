package sched

import "ishare/internal/exec"

// SetExecOptions replaces the scheduler's runner configuration between
// windows (before the first Tick included). Test-only on purpose: Config has
// no field for the executor's differential toggles, and the invariance tests
// are the only callers that need the off-paths.
func (s *Scheduler) SetExecOptions(o exec.Options) { s.runner.SetOptions(o) }
