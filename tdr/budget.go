package tdr

import (
	"finishrepair/internal/guard"
)

// Budget bounds every resource a pipeline run may consume: wall-clock
// time, interpreter work units, DP states explored by finish placement,
// S-DPST nodes, and repair iterations. The zero value applies the
// defaults (no deadline, DefaultOpLimit ops, unlimited DP states and
// nodes, DefaultMaxIterations rounds). Pass one to the *Ctx entry points
// (DetectCtx, DetectEngineCtx, RunSequentialCtx, RunParallelCtx,
// SDPSTDotCtx, CoverageCtx), or set RepairOptions.Budget for RepairCtx
// and RepairAcrossCtx.
type Budget = guard.Budget

// Resource names the budget dimension that ran out in a
// BudgetExceededError.
type Resource = guard.Resource

// Budget resources.
const (
	ResourceDeadline   = guard.ResourceDeadline
	ResourceOps        = guard.ResourceOps
	ResourceDPStates   = guard.ResourceDPStates
	ResourceSDPSTNodes = guard.ResourceSDPSTNodes
)

// Defaults applied by the zero Budget.
const (
	DefaultOpLimit       = guard.DefaultOpLimit
	DefaultMaxIterations = guard.DefaultMaxIterations
)

// BudgetExceededError reports that one Budget resource ran out before
// the pipeline finished. Test with errors.As; inspect Resource to tell
// a deadline from an op or DP-state trip.
type BudgetExceededError = guard.BudgetExceededError

// CanceledError reports that the caller's context was canceled
// mid-pipeline. It unwraps to both ErrCanceled and the context's cause.
type CanceledError = guard.CanceledError

// InternalError is a panic recovered at the tdr API boundary: a pipeline
// bug (or injected fault) converted into a value carrying the failing
// phase and the stack. No panic crosses the public API.
type InternalError = guard.InternalError

// ErrCanceled matches (errors.Is) any error caused by context
// cancellation.
var ErrCanceled = guard.ErrCanceled

// IsBudgetOrCanceled reports whether err is a budget trip or a
// cancellation — the conditions the CLIs map to exit code 4.
func IsBudgetOrCanceled(err error) bool { return guard.IsBudgetOrCanceled(err) }
