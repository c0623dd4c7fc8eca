// Package interp executes HJ-lite programs. One compiler (compile.go)
// turns the checked program into closures once per run, under one of
// four policies chosen at compile time:
//
//   - depth-first (Run, Mode DepthFirst): the canonical sequential
//     execution, every async inline in spawn order. With Options.Trace
//     set it is the instrumented capture: step boundaries, interior-node
//     structure events and memory accesses stream into a
//     trace.Recorder, from which trace.Replay builds the S-DPST; without
//     it, it is the adversary's serial oracle.
//   - elision (Run, Mode Elide): async and finish ignored; the semantic
//     reference and HJ-Seq timings.
//   - free-running (RunParallel): asyncs become taskpar tasks and
//     finishes taskpar finish scopes. It is meant for data-race-free
//     programs (expert-written or repaired); a racy program yields the
//     corresponding Go-level races.
//   - controlled (RunParallel with a Controller): the run is serialized
//     under an external scheduler, one logical task at a time, with a
//     named yield point before every shared access, spawn and print, so
//     an adversarial controller (internal/adversary) can steer racy
//     programs into chosen interleavings deterministically.
//
// Semantics relevant to race detection:
//
//   - async bodies capture enclosing locals BY VALUE (a snapshot at spawn
//     time), the HJ "final variable" idiom; locals therefore never race.
//   - arrays are heap objects shared by reference; global variables are
//     shared cells. Only array elements and globals are instrumented:
//     global slot s is location 1+s, and arrays number their elements
//     from 1+GlobalCount in allocation order.
//   - finish bodies are scope-transparent for variable scoping but
//     introduce a Finish node in the S-DPST.
//
// The work cost model is deterministic: every statement and expression
// node evaluated charges one work unit to the current step (finish and
// isolated are free, so repaired programs have exactly the work of the
// original). These units feed the finish-placement DP (t[i], EST) and
// the critical-path-length analyzer.
package interp

import (
	"bytes"
	"sync"

	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/internal/trace"
	"finishrepair/taskpar"
)

// Mode selects how Run executes parallel constructs.
type Mode int

// Execution modes.
const (
	// DepthFirst executes asyncs inline in depth-first order (the
	// canonical sequential execution used for race detection).
	DepthFirst Mode = iota
	// Elide ignores async and finish entirely: the serial elision. Used
	// as the semantic reference and for HJ-Seq timings.
	Elide
)

// Options configures a sequential run.
type Options struct {
	Mode Mode
	// Trace, when set, instruments the run: structure events, step
	// boundaries, and memory accesses stream into the recorder, so
	// analyses can replay the execution without re-running it
	// (trace.Replay builds its S-DPST). Requires the DepthFirst mode.
	Trace *trace.Recorder
	// OpLimit bounds this run's work units; 0 means the shared default
	// (guard.DefaultOpLimit), so sequential, instrumented, and parallel
	// runs all agree on one bound.
	OpLimit int64
	// Meter, when set, threads the pipeline's shared budget through the
	// run: cumulative op accounting in batches of meterBatch units and
	// periodic cancellation/deadline checks.
	Meter *guard.Meter
}

// Result summarizes a sequential run.
type Result struct {
	Output string
	Work   int64 // total work units executed
	// Globals is the final value of every global variable slot, in slot
	// order. The adversarial scheduler compares it (rendered via
	// RenderState) against controlled-schedule runs: two executions agree
	// only if both output and final shared state match.
	Globals []Value
}

// meterBatch is how many work units a sequential run executes between
// flushes to the shared meter (which itself checks cancellation every
// guard check interval).
const meterBatch = 1024

// Run executes the checked program sequentially and returns the result.
// Runtime faults are returned as *RuntimeError.
func Run(info *sem.Info, opts Options) (*Result, error) {
	if opts.Trace != nil && opts.Mode != DepthFirst {
		return nil, &RuntimeError{Msg: "trace capture requires the depth-first mode"}
	}
	pol := depthFirst
	if opts.Mode == Elide {
		pol = elide
	}
	r := newRunner(info, pol, opts.Meter)
	r.rec = opts.Trace
	r.opLimit = opts.OpLimit
	if r.opLimit == 0 {
		r.opLimit = guard.DefaultOpLimit
	}
	prog := r.compile()
	r.arm()
	err := catch(func() { r.main(&tctx{}, prog) })

	// The unit that trips the op limit never executes: charge neither the
	// meter's tail flush nor the final step for it.
	work := r.work
	if work > r.opLimit {
		r.work--
	}
	if r.meter != nil && r.work > r.flushed {
		_ = r.meter.AddOps(r.work - r.flushed)
	}
	r.endStep()
	return &Result{Output: r.out.String(), Work: work, Globals: r.globals}, err
}

// policy is how a run executes async, finish and isolated.
type policy uint8

const (
	depthFirst policy = iota
	elide
	freeRunning
	controlled
)

// runner is one run's shared state; the compiled closures capture it.
type runner struct {
	info    *sem.Info
	pol     policy
	globals []Value
	// meter is the shared pipeline budget. A sequential run charges it in
	// batches of ticks; a parallel run charges one unit per call, loop
	// iteration and async through coarse, which is nil in sequential runs.
	meter, coarse *guard.Meter

	outMu sync.Mutex
	out   bytes.Buffer

	// nextLoc is the next array element location. Free-running runs
	// allocate concurrently and observe no locations, so they number
	// nothing.
	nextLoc uint64

	// Sequential runs: the units ticked, the count at which tick next
	// takes its budget slow path, the op limit and the units already
	// flushed to the meter; then the capture state (rec nil = no
	// capture). stepOpen is set between a step boundary and the end of
	// that step; mark is the work count at the last event recorded in it.
	// siteBlock and siteIdx are the innermost statement coordinates,
	// where call scopes opened mid-expression and steps reopened after
	// them are placed.
	work, trip int64
	opLimit    int64
	flushed    int64
	rec        *trace.Recorder
	stepOpen   bool
	mark       int64
	siteBlock  *ast.Block
	siteIdx    int

	// isoMu is the global isolated lock (free-running runs). A class-0
	// isolated body write-locks it, excluding every other isolated body.
	// A class-c body (c > 0) read-locks isoMu — so any number of
	// nonzero-class bodies run concurrently with each other while class 0
	// is excluded — and then locks classMu[c-1] to exclude its own class.
	// The other policies need no locks: one task runs at a time, and a
	// controlled task suppresses its yields inside isolated bodies.
	isoMu   sync.RWMutex
	classMu []sync.Mutex

	// Controlled runs: the external scheduler, the spawned-task join
	// group, and the first failure.
	ctl      Controller
	wg       sync.WaitGroup
	errMu    sync.Mutex
	firstErr error
}

func newRunner(info *sem.Info, pol policy, meter *guard.Meter) *runner {
	r := &runner{
		info:    info,
		pol:     pol,
		globals: make([]Value, info.GlobalCount),
		meter:   meter,
		nextLoc: GlobalLoc(info.GlobalCount),
	}
	if pol >= freeRunning {
		r.coarse = meter
	}
	return r
}

// tctx is the per-task execution context threaded through the compiled
// code: the taskpar context in free-running runs, or the controller
// task id in controlled runs, plus the innermost statement position
// (read by controlled yields) and the value of the innermost executed
// return.
type tctx struct {
	tp       *taskpar.Ctx // free-running only
	id       int          // controller task id (controlled only)
	pos      token.Pos    // innermost statement position
	isoDepth int          // isolated-statement nesting depth (this task)
	ret      Value
}

// main initializes the globals in declaration order, then runs main.
func (r *runner) main(c *tctx, prog *program) {
	for _, g := range prog.globals {
		g(c)
	}
	// A capture places main's call scope at the site of the last global
	// initializer's step, (nil, 0), which is also the initial site.
	r.invoke(c, prog.main, make(frame, prog.main.size))
}

// catch runs fn and returns the runtime fault, budget trip or
// cancellation that unwound it.
func catch(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			switch v := p.(type) {
			case *RuntimeError:
				err = v
			case guard.Bail:
				// Budget trips and cancellations unwind via guard.Bail;
				// return the typed error they carry.
				err = v.Err
			default:
				panic(p)
			}
		}
	}()
	fn()
	return nil
}

// sequential reports whether the run is depth-first or elided: one task,
// whose every statement and expression node ticks a work unit.
func (r *runner) sequential() bool { return r.pol <= elide }

// tick charges one work unit.
func (r *runner) tick() {
	if r.work++; r.work == r.trip {
		r.budget()
	}
}

// budget is tick's slow path: it trips the op limit or flushes a batch
// to the meter, then arms the next threshold.
func (r *runner) budget() {
	if r.work > r.opLimit {
		panic(guard.Bail{Err: &guard.BudgetExceededError{
			Resource: guard.ResourceOps,
			Phase:    r.meter.CurrentPhase(),
			Limit:    r.opLimit,
			Used:     r.work,
		}})
	}
	if r.meter != nil && r.work == r.flushed+meterBatch {
		r.flushed = r.work
		if err := r.meter.AddOps(meterBatch); err != nil {
			panic(guard.Bail{Err: err})
		}
	}
	r.arm()
}

// arm sets the work count of the next budget check: the op limit's trip
// or the next meter batch, whichever comes first.
func (r *runner) arm() {
	r.trip = max(r.opLimit, 0) + 1
	if r.meter != nil && r.flushed+meterBatch < r.trip {
		r.trip = r.flushed + meterBatch
	}
}

// charge is the parallel policies' coarse meter unit, taken at each
// call, loop iteration and async; sequential runs meter every tick.
func (r *runner) charge() {
	if r.coarse == nil {
		return
	}
	if err := r.coarse.AddOps(1); err != nil {
		panic(guard.Bail{Err: err})
	}
}

// enter starts the statement at index idx of block b: its position and,
// in a sequential run, its step boundary and work unit. Like the hooks
// below it splits into an inlined test and an outlined body, so a run
// that records nothing pays one predictable branch.
func (r *runner) enter(c *tctx, pos token.Pos, b *ast.Block, idx int) {
	c.pos = pos
	if r.sequential() {
		r.enterStep(b, idx)
	}
}

func (r *runner) enterStep(b *ast.Block, idx int) {
	r.step(b, idx)
	r.tick()
}

// step records a step boundary at statement idx of block b (replay opens
// a step there or extends the trailing one).
func (r *runner) step(b *ast.Block, idx int) {
	if r.rec != nil {
		r.recordStep(b, idx)
	}
}

func (r *runner) recordStep(b *ast.Block, idx int) {
	r.siteBlock, r.siteIdx = b, idx
	r.settle()
	r.rec.Step(b, idx)
	r.stepOpen = true
}

// settle charges the recorder the units ticked since the last event
// recorded in the open step; units ticked while no step is open belong
// to no step.
func (r *runner) settle() {
	if r.stepOpen {
		r.rec.AddWork(r.work - r.mark)
	}
	r.mark = r.work
}

func (r *runner) endStep() {
	if r.stepOpen {
		r.recordEnd()
	}
}

func (r *runner) recordEnd() {
	r.settle()
	r.rec.End()
	r.stepOpen = false
}

// node is the static description of an interior S-DPST node: the
// construct at statement idx of block owner, whose children instantiate
// body.
type node struct {
	kind  dpst.Kind
	class dpst.ScopeClass
	label string
	owner *ast.Block
	idx   int
	body  *ast.Block
}

// push records the opening of interior node n.
func (r *runner) push(n *node) {
	if r.rec != nil {
		r.recordPush(n)
	}
}

func (r *runner) recordPush(n *node) {
	r.endStep()
	r.rec.Push(uint8(n.kind), uint8(n.class), n.label, n.owner, n.idx, n.body)
}

// pop records the closing of the innermost interior node.
func (r *runner) pop() {
	if r.rec != nil {
		r.recordPop()
	}
}

func (r *runner) recordPop() {
	r.endStep()
	r.rec.Pop()
}

// access announces a shared-memory access to loc: a recorded event in a
// capture, a yield point in a controlled run.
func (r *runner) access(c *tctx, op PointOp, loc uint64) {
	if r.rec != nil || r.ctl != nil {
		r.announce(c, op, loc)
	}
}

func (r *runner) announce(c *tctx, op PointOp, loc uint64) {
	if r.rec == nil {
		r.yield(c, op, loc)
		return
	}
	// A capture whose step ended with a call scope mid-statement reopens
	// one at the recorded site.
	if !r.stepOpen {
		r.recordStep(r.siteBlock, r.siteIdx)
	}
	r.settle()
	if op == OpRead {
		r.rec.Read(loc)
	} else {
		r.rec.Write(loc)
	}
}
