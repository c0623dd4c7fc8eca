// Package guard is the fault-tolerance core of the repair pipeline:
// resource budgets, cooperative cancellation, and panic containment.
//
// Every pipeline phase (parse, detect, dp-place, rewrite, the
// interpreters) threads a shared *Meter through its hot loops and calls
// the nil-safe Add*/Check methods; when a limit trips or the caller's
// context is canceled, the phase unwinds with a typed error instead of
// running away or crashing:
//
//   - *BudgetExceededError — a Budget resource (wall-clock deadline,
//     interpreter ops, DP states, S-DPST nodes) ran out;
//   - ErrCanceled (wrapped by *CanceledError) — the caller's context was
//     canceled;
//   - *InternalError — a panic escaped a phase; Protect converts it to a
//     value carrying the phase name and stack so no panic crosses the
//     public tdr API.
//
// The package is a leaf: everything above it (tdr, internal/repair,
// internal/interp, taskpar) imports it, and the tdr
// facade re-exports the types by alias so callers outside the module see
// them as tdr.Budget, tdr.BudgetExceededError, and so on.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"finishrepair/internal/obs"
)

// Failure-rate metrics for operators (see README Observability).
var (
	mBudgetTrips     = obs.Default().Counter("fault.budget_trips")
	mCancellations   = obs.Default().Counter("fault.cancellations")
	mRecoveredPanics = obs.Default().Counter("fault.recovered_panics")
)

// Defaults applied by Budget.fill. DefaultOpLimit is the single source
// of truth for the interpreter op bound: the sequential, instrumented,
// and parallel runs all agree on it.
const (
	DefaultOpLimit       = int64(1) << 40
	DefaultMaxIterations = 10
)

// checkInterval is how many consumed ops elapse between deadline and
// context checks in the interpreter hot loops: small enough that a
// canceled pipeline aborts in well under 100ms, large enough that the
// time.Now call vanishes in the noise.
const checkInterval = 1024

// Budget bounds every resource a repair pipeline run may consume. The
// zero value means "defaults": no deadline, DefaultOpLimit interpreter
// ops, unlimited DP states and S-DPST nodes, DefaultMaxIterations
// repair rounds.
type Budget struct {
	// Timeout is the wall-clock budget for the whole pipeline run
	// (0 = none). A context deadline, when earlier, takes precedence.
	Timeout time.Duration
	// OpLimit bounds cumulative interpreter work units across every
	// execution of the run, sequential and parallel (0 = DefaultOpLimit).
	OpLimit int64
	// MaxDPStates bounds cumulative dynamic-programming states explored
	// by finish placement (0 = unlimited). When it trips mid-placement
	// the repair degrades to the coarse sound placement instead of
	// failing (see internal/repair).
	MaxDPStates int64
	// MaxSDPSTNodes bounds the size of each S-DPST trace replay builds
	// (0 = unlimited).
	MaxSDPSTNodes int64
	// MaxIterations bounds repair detect/place/rewrite rounds
	// (0 = DefaultMaxIterations). Exhausting it yields the repair
	// package's MaxIterationsError, distinct from a budget trip.
	MaxIterations int
}

// fill returns the budget with defaults applied.
func (b Budget) fill() Budget {
	if b.OpLimit == 0 {
		b.OpLimit = DefaultOpLimit
	}
	if b.MaxIterations == 0 {
		b.MaxIterations = DefaultMaxIterations
	}
	return b
}

// Iterations returns the effective repair-iteration bound.
func (b Budget) Iterations() int {
	if b.MaxIterations == 0 {
		return DefaultMaxIterations
	}
	return b.MaxIterations
}

// Resource names the budget dimension that ran out.
type Resource string

// Budget resources.
const (
	ResourceDeadline   Resource = "deadline"
	ResourceOps        Resource = "interpreter-ops"
	ResourceDPStates   Resource = "dp-states"
	ResourceSDPSTNodes Resource = "sdpst-nodes"
)

// ErrCanceled reports that the caller's context was canceled before the
// pipeline finished. Test with errors.Is.
var ErrCanceled = errors.New("repair pipeline canceled")

// CanceledError wraps ErrCanceled with the phase that observed the
// cancellation and the context's cause.
type CanceledError struct {
	// Phase is the pipeline phase that observed the cancellation.
	Phase string
	// Cause is the context error (context.Canceled or a custom cause).
	Cause error
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("%s: canceled: %v", e.Phase, e.Cause)
}

// Unwrap makes errors.Is(err, ErrCanceled) and errors.Is(err,
// context.Canceled) both succeed.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// BudgetExceededError reports that one Budget resource ran out. Which
// one is in Resource; Phase identifies the pipeline phase that tripped.
type BudgetExceededError struct {
	Resource Resource
	Phase    string
	// Limit is the configured bound; Used what had been consumed when
	// the trip was detected (for ResourceDeadline both are nanoseconds
	// of wall clock).
	Limit, Used int64
}

// Error implements the error interface. The ops message keeps the
// historical "op budget exhausted" phrasing relied on by callers
// diagnosing runaway programs.
func (e *BudgetExceededError) Error() string {
	p := ""
	if e.Phase != "" {
		p = e.Phase + ": "
	}
	switch e.Resource {
	case ResourceOps:
		return fmt.Sprintf("%sop budget exhausted after %d work units (limit %d; infinite loop?)", p, e.Used, e.Limit)
	case ResourceDeadline:
		return fmt.Sprintf("%sdeadline exceeded after %v (budget %v)", p, time.Duration(e.Used), time.Duration(e.Limit))
	default:
		return fmt.Sprintf("%s%s budget exhausted: %d used (limit %d)", p, e.Resource, e.Used, e.Limit)
	}
}

// InternalError is a recovered panic: a bug in the pipeline (or an
// injected fault) that Protect converted into a value so it cannot take
// the process down. It records the failing phase and the stack at the
// point of the panic.
type InternalError struct {
	Phase string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements the error interface.
func (e *InternalError) Error() string {
	return fmt.Sprintf("%s: internal error: %v", e.Phase, e.Value)
}

// Unwrap exposes a panicked error value to errors.Is/As.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Bail carries a typed pipeline error through panic-based unwinding in
// the interpreters (which already use panic/recover for HJ-lite runtime
// faults). Run boundaries and Protect recover it and return Err; it is
// never surfaced as a panic to callers.
type Bail struct{ Err error }

// Meter is the shared, concurrency-safe consumption state of one
// pipeline run: the filled Budget, the caller's context, and cumulative
// op/DP-state counters. All methods are nil-safe — a nil *Meter means
// "unlimited, never canceled" and costs one pointer test.
type Meter struct {
	ctx      context.Context
	done     <-chan struct{}
	start    time.Time
	deadline time.Time
	budget   Budget

	deadlineOff atomic.Bool // set by Lift(ResourceDeadline)
	ops         atomic.Int64
	dpStates    atomic.Int64
	sinceCheck  atomic.Int64
	phase       atomic.Pointer[string]
}

// NewMeter builds a meter for one pipeline run. ctx may be nil; the
// effective deadline is the earlier of ctx's deadline and now+Timeout.
func NewMeter(ctx context.Context, b Budget) *Meter {
	m := &Meter{ctx: ctx, start: time.Now(), budget: b.fill()}
	if ctx != nil {
		m.done = ctx.Done()
		if d, ok := ctx.Deadline(); ok {
			m.deadline = d
		}
	}
	if b.Timeout > 0 {
		if d := m.start.Add(b.Timeout); m.deadline.IsZero() || d.Before(m.deadline) {
			m.deadline = d
		}
	}
	ph := "pipeline"
	m.phase.Store(&ph)
	return m
}

// SetPhase records the pipeline phase for error attribution. Safe from
// any goroutine; nil-safe.
func (m *Meter) SetPhase(phase string) {
	if m == nil {
		return
	}
	m.phase.Store(&phase)
}

// CurrentPhase returns the phase recorded by SetPhase ("pipeline" when
// never set, "" on a nil meter).
func (m *Meter) CurrentPhase() string {
	if m == nil {
		return ""
	}
	return *m.phase.Load()
}

// OpLimit returns the effective interpreter op limit (DefaultOpLimit on
// a nil meter).
func (m *Meter) OpLimit() int64 {
	if m == nil {
		return DefaultOpLimit
	}
	return m.budget.OpLimit
}

// MaxSDPSTNodes returns the S-DPST node bound (0 = unlimited).
func (m *Meter) MaxSDPSTNodes() int64 {
	if m == nil {
		return 0
	}
	return m.budget.MaxSDPSTNodes
}

// Iterations returns the effective repair-iteration bound.
func (m *Meter) Iterations() int {
	if m == nil {
		return DefaultMaxIterations
	}
	return m.budget.Iterations()
}

// Check tests cancellation and the wall-clock deadline. It is the slow
// half of the hot-loop checks: callers batch via AddOps/AddDPStates,
// which call it every checkInterval units.
func (m *Meter) Check() error {
	if m == nil {
		return nil
	}
	if m.done != nil {
		select {
		case <-m.done:
			mCancellations.Inc()
			cause := m.ctx.Err()
			if context.Cause(m.ctx) != nil {
				cause = context.Cause(m.ctx)
			}
			// A context that expired by deadline is a deadline trip, not
			// a user cancellation.
			if errors.Is(cause, context.DeadlineExceeded) {
				return m.deadlineError()
			}
			return &CanceledError{Phase: m.CurrentPhase(), Cause: cause}
		default:
		}
	}
	if !m.deadline.IsZero() && !m.deadlineOff.Load() && time.Now().After(m.deadline) {
		return m.deadlineError()
	}
	return nil
}

func (m *Meter) deadlineError() error {
	mBudgetTrips.Inc()
	return &BudgetExceededError{
		Resource: ResourceDeadline,
		Phase:    m.CurrentPhase(),
		Limit:    int64(m.deadline.Sub(m.start)),
		Used:     int64(time.Since(m.start)),
	}
}

// Lift disarms one budget dimension for the rest of the run. The repair
// loop uses it after committing to a degraded placement on a deadline
// trip: the final verification pass must complete (still bounded by the
// op budget) or the degraded repair would be lost.
func (m *Meter) Lift(r Resource) {
	if m == nil {
		return
	}
	if r == ResourceDeadline {
		m.deadlineOff.Store(true)
	}
}

// AddOps charges n interpreter work units against the cumulative op
// budget and runs the cancellation/deadline check every checkInterval
// charged units. The interpreters call it in batches from their tick
// loops.
func (m *Meter) AddOps(n int64) error {
	if m == nil {
		return nil
	}
	used := m.ops.Add(n)
	if used > m.budget.OpLimit {
		mBudgetTrips.Inc()
		return &BudgetExceededError{Resource: ResourceOps, Phase: m.CurrentPhase(), Limit: m.budget.OpLimit, Used: used}
	}
	if m.sinceCheck.Add(n) >= checkInterval {
		m.sinceCheck.Store(0)
		return m.Check()
	}
	return nil
}

// AddDPStates charges n dynamic-programming states against the DP-state
// budget, with the same periodic cancellation check as AddOps.
func (m *Meter) AddDPStates(n int64) error {
	if m == nil {
		return nil
	}
	used := m.dpStates.Add(n)
	if m.budget.MaxDPStates > 0 && used > m.budget.MaxDPStates {
		mBudgetTrips.Inc()
		return &BudgetExceededError{Resource: ResourceDPStates, Phase: m.CurrentPhase(), Limit: m.budget.MaxDPStates, Used: used}
	}
	if m.sinceCheck.Add(n) >= checkInterval {
		m.sinceCheck.Store(0)
		return m.Check()
	}
	return nil
}

// DPStates returns the cumulative DP states charged so far.
func (m *Meter) DPStates() int64 {
	if m == nil {
		return 0
	}
	return m.dpStates.Load()
}

// NodeBudgetError builds the S-DPST node-budget error; trace replay
// calls it when the nodes it has built pass MaxSDPSTNodes. Replay builds
// the S-DPST only to detect races, so the trip names phase detect
// rather than the meter's phase: a replay that overlaps the capture
// runs on another goroutine while the capture holds trace-capture.
func (m *Meter) NodeBudgetError(used int64) error {
	mBudgetTrips.Inc()
	return &BudgetExceededError{Resource: ResourceSDPSTNodes, Phase: "detect", Limit: m.MaxSDPSTNodes(), Used: used}
}

// Protect runs fn, converting any escaping panic into a typed error:
// Bail panics return their carried error verbatim; anything else
// becomes an *InternalError carrying phase and stack. It is the
// containment boundary wrapped around every public tdr entry point and
// every risky pipeline phase.
func Protect(phase string, fn func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if b, ok := r.(Bail); ok {
			err = b.Err
			return
		}
		mRecoveredPanics.Inc()
		err = &InternalError{Phase: phase, Value: r, Stack: string(debug.Stack())}
	}()
	return fn()
}

// IsBudgetOrCanceled reports whether err is a budget trip or a
// cancellation — the conditions CLIs map to their distinct exit code.
func IsBudgetOrCanceled(err error) bool {
	var be *BudgetExceededError
	return errors.As(err, &be) || errors.Is(err, ErrCanceled)
}
