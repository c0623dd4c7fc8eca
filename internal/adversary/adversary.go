// Package adversary is the deterministic adversarial scheduler for the
// task-parallel executor: it drives interp's controlled runs
// (interp.RunParallel with a Controller), deciding at every yield point
// (shared-memory access, async spawn, print) which logical task runs
// next.
//
// Three capabilities build on the controller (the robustness layer of
// ROADMAP item 3):
//
//   - witness generation (FindWitness): replay each static race under
//     race-directed schedules until the program observably diverges
//     from the serial oracle — a concrete torn-value or wrong-output
//     witness instead of an abstract race report;
//   - adversarial verification (Verify): re-execute a repaired program
//     under K schedules (race-directed + seeded random-priority) and
//     fail if any interleaving diverges from the oracle;
//   - coverage-gap search (SearchGap): drive the static analyzer's
//     unexercised race candidates with position-directed schedules to
//     either find a dynamic witness or report the pair
//     schedule-unreachable for this input.
//
// All scheduling is token-based: exactly one task runs at a time and
// handoff happens through channels, so even HJ-level-racy programs
// execute without Go-level data races (the controlled-scheduling
// technique of execution-replay systems, cf. Ronsse–De Bosschere).
package adversary

import (
	"fmt"
	"math/rand"
	"sync"

	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/internal/obs"
)

// Adversary metrics (registered in the obs KnownMetrics manifest).
var (
	mSchedulesRun     = obs.Default().Counter("adversary.schedules_run")
	mWitnessesFound   = obs.Default().Counter("adversary.witnesses_found")
	mYields           = obs.Default().Counter("adversary.yields")
	mHandoffs         = obs.Default().Counter("adversary.handoffs")
	mGapSearches      = obs.Default().Counter("adversary.gap_searches")
	mWitnessNs        = obs.Default().Histogram("adversary.witness_ns")
	mVerifyScheduleNs = obs.Default().Histogram("adversary.verify_schedule_ns")
)

// DefaultMaxYields bounds the yield points of one controlled run — the
// livelock guard for pathological schedules. Each interpreter op yields
// at most a handful of times, so this comfortably covers every bundled
// program while stopping runaway interleavings.
const DefaultMaxYields = 1 << 21

// YieldLimitError reports that one schedule exceeded its yield bound.
// It fails that schedule (a divergence-grade outcome), not the whole
// search — unlike a pipeline budget trip, which aborts the search.
type YieldLimitError struct{ Limit int64 }

// Error implements the error interface.
func (e *YieldLimitError) Error() string {
	return fmt.Sprintf("schedule exceeded %d yield points", e.Limit)
}

// RunOptions configures one controlled run.
type RunOptions struct {
	// Meter charges one op per yield against the shared pipeline budget;
	// budget and cancellation errors abort the whole schedule search.
	Meter *guard.Meter
	// MaxYields bounds this run's yield points (0 = DefaultMaxYields).
	MaxYields int64
	// Watch lists source positions whose reachability the run records:
	// Outcome.Reached[i] is true iff a shared access at Watch[i] yielded.
	Watch []token.Pos
}

// Outcome is the observable result of one controlled run.
type Outcome struct {
	Schedule Schedule
	Output   string
	State    string // rendered final globals (interp.RenderState)
	// Err is the program-level failure of this schedule (runtime error,
	// yield-limit trip), nil for a clean run. Divergence is judged on
	// Output, State, and Err against the oracle.
	Err error
	// Yields counts yield points; Grants token grants; Trace is the
	// FNV-1a digest of the grant sequence (the schedule's decision
	// fingerprint, equal across replays of the same Schedule).
	Yields int64
	Grants int64
	Trace  uint64
	// Reached mirrors RunOptions.Watch.
	Reached []bool
}

// Run executes the program under one controlled schedule. Program-level
// failures (runtime faults, yield-limit trips) land in Outcome.Err;
// only pipeline-level failures (budget exhaustion, cancellation) are
// returned as the second value and should abort the enclosing search.
func Run(info *sem.Info, sched Schedule, opts RunOptions) (*Outcome, error) {
	maxYields := opts.MaxYields
	if maxYields == 0 {
		maxYields = DefaultMaxYields
	}
	ctl := &controller{
		sched:     sched,
		rng:       rand.New(rand.NewSource(sched.Seed)),
		running:   -1,
		last:      -1,
		meter:     opts.Meter,
		maxYields: maxYields,
		abortCh:   make(chan struct{}),
		watch:     opts.Watch,
		reached:   make([]bool, len(opts.Watch)),
	}
	mSchedulesRun.Inc()
	res, err := interp.RunParallel(info, interp.ParallelOptions{Controller: ctl, Meter: opts.Meter})
	out := &Outcome{
		Schedule: sched,
		Yields:   ctl.yields,
		Grants:   ctl.grants,
		Trace:    ctl.trace,
		Reached:  ctl.reached,
	}
	mYields.Add(ctl.yields)
	mHandoffs.Add(ctl.handoffs)
	if ctl.err != nil {
		// A controller invariant broke (e.g. a blocked task set with no
		// runnable task): an internal error, not a schedule outcome.
		return nil, ctl.err
	}
	if err != nil {
		if guard.IsBudgetOrCanceled(err) {
			return nil, err
		}
		out.Err = err
		return out, nil
	}
	out.Output = res.Output
	out.State = res.State
	return out, nil
}

// taskState is a controlled task's scheduling state.
type taskState uint8

const (
	tReady taskState = iota
	tRunning
	tBlocked  // waiting in FinishWait
	tDeferred // yielded at a point the schedule defers
	tDone
)

type task struct {
	id     int
	state  taskState
	gate   chan struct{} // buffered(1): a grant may precede Begin
	attach int           // finish scope this task's completion is charged to (-1: none)
	open   []int         // finish scopes opened by this task, innermost last
}

type scope struct {
	owner   int
	live    int
	waiting bool // owner is blocked in FinishWait on this scope
}

// controller implements interp.Controller: a single-token
// cooperative scheduler whose every decision comes from the Schedule.
// All state is mutex-guarded; blocking happens on per-task gate
// channels outside the lock.
type controller struct {
	mu       sync.Mutex
	sched    Schedule
	rng      *rand.Rand
	tasks    []*task
	scopes   []*scope
	ready    []int // schedulable task ids, insertion order
	deferred []int // tasks parked by the defer policy, FIFO
	running  int   // token holder (-1: free)
	last     int   // task of the latest grant (-1: none yet)
	live     int   // registered and not yet ended

	meter     *guard.Meter
	yields    int64
	maxYields int64
	grants    int64
	handoffs  int64 // grants to a task other than the latest grant's
	trace     uint64

	aborted bool
	abortCh chan struct{}
	err     error // controller-invariant failure (deadlock)

	watch   []token.Pos
	reached []bool
}

// fnv-1a over the grant sequence.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Register allocates a task attached to the parent's innermost finish
// scope and makes it schedulable immediately — before its goroutine
// starts — so schedules cannot depend on goroutine startup timing.
func (c *controller) Register(parent int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := len(c.tasks)
	t := &task{id: id, gate: make(chan struct{}, 1), attach: -1}
	if parent >= 0 {
		p := c.tasks[parent]
		if n := len(p.open); n > 0 {
			t.attach = p.open[n-1]
		} else {
			t.attach = p.attach
		}
	}
	if t.attach >= 0 {
		c.scopes[t.attach].live++
	}
	c.tasks = append(c.tasks, t)
	c.live++
	c.ready = append(c.ready, id)
	return id
}

// Begin blocks the task's goroutine until its first grant.
func (c *controller) Begin(id int) {
	c.mu.Lock()
	t := c.tasks[id]
	if c.running == -1 && !c.aborted {
		// Only the root task can find the token free at Begin.
		c.schedule()
	}
	c.mu.Unlock()
	c.await(t)
}

// Yield parks the task at point p, lets the schedule pick a successor,
// and returns when the task is granted again. When the schedule would
// pick the yielding task itself, Yield records that grant and returns
// at once: no ready-list round trip, no gate send, no wait.
func (c *controller) Yield(id int, p interp.Point) {
	c.mu.Lock()
	if c.aborted {
		c.mu.Unlock()
		panic(interp.Aborted{})
	}
	c.yields++
	if c.yields > c.maxYields {
		c.mu.Unlock()
		panic(guard.Bail{Err: &YieldLimitError{Limit: c.maxYields}})
	}
	if err := c.meter.AddOps(1); err != nil {
		c.mu.Unlock()
		panic(guard.Bail{Err: err})
	}
	for i, w := range c.watch {
		if p.Pos == w && (p.Op == interp.OpRead || p.Op == interp.OpWrite) {
			c.reached[i] = true
		}
	}
	t := c.tasks[id]
	if c.sched.defers(p) {
		t.state = tDeferred
		c.deferred = append(c.deferred, id)
		c.running = -1
		c.schedule()
	} else {
		// schedule() would append id to ready and pick from there; pick
		// now, with len(ready) standing for id. Picking id is a
		// self-grant: the task keeps the token.
		i := c.pickWith(id)
		if i == len(c.ready) {
			c.grants++
			c.trace = fnvMix(c.trace, uint64(id))
			c.mu.Unlock()
			return
		}
		t.state = tReady
		c.ready = append(c.ready, id)
		c.grant(i)
	}
	c.mu.Unlock()
	c.await(t)
}

// FinishEnter opens a finish scope owned by the calling task.
func (c *controller) FinishEnter(id int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := len(c.scopes)
	c.scopes = append(c.scopes, &scope{owner: id})
	c.tasks[id].open = append(c.tasks[id].open, s)
	return s
}

// FinishWait blocks until every task registered in the scope has ended.
// When the scope is already empty the task keeps the token and returns
// without a scheduling decision (matching the cost model: an empty
// finish is free).
func (c *controller) FinishWait(id int, sid int) {
	c.mu.Lock()
	if c.aborted {
		c.mu.Unlock()
		panic(interp.Aborted{})
	}
	t := c.tasks[id]
	t.open = t.open[:len(t.open)-1]
	s := c.scopes[sid]
	if s.live == 0 {
		c.mu.Unlock()
		return
	}
	s.waiting = true
	t.state = tBlocked
	c.running = -1
	c.schedule()
	c.mu.Unlock()
	c.await(t)
}

// End retires the task, credits its finish scope (waking the scope's
// owner when it empties), and — on normal completion — releases the
// token. failed aborts the run: every blocked task is woken into an
// Aborted panic. End never blocks.
func (c *controller) End(id int, failed bool) {
	c.mu.Lock()
	t := c.tasks[id]
	t.state = tDone
	c.live--
	if t.attach >= 0 {
		s := c.scopes[t.attach]
		s.live--
		if s.live == 0 && s.waiting {
			s.waiting = false
			owner := c.tasks[s.owner]
			owner.state = tReady
			c.ready = append(c.ready, owner.id)
		}
	}
	if failed {
		c.abort()
	}
	if !c.aborted && c.running == id {
		c.running = -1
		c.schedule()
	}
	c.mu.Unlock()
}

// abort (mu held) stops all scheduling and wakes every blocked task.
func (c *controller) abort() {
	if c.aborted {
		return
	}
	c.aborted = true
	close(c.abortCh)
}

// schedule (mu held) grants the token to the schedule's pick. With no
// ready task it promotes the longest-deferred one (the livelock
// fallback: a directed schedule may not stall the program forever).
func (c *controller) schedule() {
	if c.aborted || c.running != -1 {
		return
	}
	if len(c.ready) == 0 && len(c.deferred) > 0 {
		id := c.deferred[0]
		c.deferred = c.deferred[1:]
		c.tasks[id].state = tReady
		c.ready = append(c.ready, id)
	}
	if len(c.ready) == 0 {
		if c.live > 0 {
			// Structured async/finish programs always have a runnable
			// task while any is live; getting here is a controller bug.
			c.err = fmt.Errorf("adversary: schedule deadlock with %d live task(s)", c.live)
			c.abort()
		}
		return
	}
	c.grant(c.pick())
}

// grant (mu held) hands the token to ready[i].
func (c *controller) grant(i int) {
	id := c.ready[i]
	c.ready = append(c.ready[:i], c.ready[i+1:]...)
	t := c.tasks[id]
	t.state = tRunning
	c.running = id
	c.grants++
	if id != c.last {
		c.handoffs++
		c.last = id
	}
	c.trace = fnvMix(c.trace, uint64(id))
	t.gate <- struct{}{}
}

// pick (mu held) chooses the index into ready per the policy. The
// directed defer policies use the depth-first base order; only
// RandomPriority consumes the rng.
func (c *controller) pick() int {
	if c.sched.Policy == RandomPriority {
		return c.rng.Intn(len(c.ready))
	}
	best := 0
	for i, id := range c.ready {
		if id > c.ready[best] {
			best = i
		}
	}
	return best
}

// pickWith (mu held) is pick over ready with id appended, without
// appending it: len(ready) stands for id. RandomPriority draws exactly
// what pick would draw after the append, and the caller grants that
// same index on the slow path, so the rng sequence is unchanged.
// Depth-first picks id unless a ready id exceeds it.
func (c *controller) pickWith(id int) int {
	if c.sched.Policy == RandomPriority {
		return c.rng.Intn(len(c.ready) + 1)
	}
	best := len(c.ready)
	for i, r := range c.ready {
		if r > id && (best == len(c.ready) || r > c.ready[best]) {
			best = i
		}
	}
	return best
}

// await blocks until the task is granted or the run aborts.
func (c *controller) await(t *task) {
	select {
	case <-t.gate:
	case <-c.abortCh:
		panic(interp.Aborted{})
	}
}
