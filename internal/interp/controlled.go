package interp

import (
	"fmt"

	"finishrepair/internal/guard"
	"finishrepair/internal/lang/token"
)

// PointOp classifies a controlled-schedule yield point by the operation
// the task is about to perform.
type PointOp uint8

// Yield-point operations. Read/Write name shared-memory accesses (the
// loc numbering matches the race detector's: globals at 1+slot, array
// elements at Base+index); Spawn fires in the parent right after an
// async child is registered; Print fires before a print/println appends
// to the shared output buffer.
const (
	OpRead PointOp = iota
	OpWrite
	OpSpawn
	OpPrint
)

// String names the operation.
func (op PointOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSpawn:
		return "spawn"
	default:
		return "print"
	}
}

// Point is one named yield point: the operation about to happen, the
// abstract shared-memory location it touches (0 for spawn/print), and
// the source position of the innermost statement performing it.
type Point struct {
	Op  PointOp
	Loc uint64
	Pos token.Pos
}

// String renders the point for schedule traces.
func (p Point) String() string {
	if p.Loc != 0 {
		return fmt.Sprintf("%s@%d(%s)", p.Op, p.Loc, p.Pos)
	}
	return fmt.Sprintf("%s(%s)", p.Op, p.Pos)
}

// Controller serializes a controlled parallel run: the executor
// surrenders every scheduling decision to it, so one logical task runs
// at a time and the interleaving is exactly the controller's choice.
// Token handoff happens through channels, so even executions that are
// racy at the HJ level are free of Go-level data races.
//
// The contract:
//
//   - Register is called by the token-holding parent (or the run setup,
//     parent -1) before the child's goroutine starts; the child becomes
//     schedulable immediately and is attached to the parent's innermost
//     finish scope.
//   - Begin blocks the new task's goroutine until the controller grants
//     it the token for the first time.
//   - Yield offers a preemption point before the operation described by
//     p; it returns when the task holds the token again.
//   - FinishEnter opens a finish scope owned by the calling task and
//     returns its id; FinishWait blocks until every task transitively
//     registered in that scope has ended (returning with the token).
//   - End reports task completion and releases the token. failed marks
//     abnormal termination: the controller must then abort the run, and
//     every blocked or future blocking call panics Aborted{} so the
//     remaining tasks unwind. End itself never blocks and never panics.
type Controller interface {
	Register(parent int) int
	Begin(id int)
	Yield(id int, p Point)
	FinishEnter(id int) int
	FinishWait(id int, scope int)
	End(id int, failed bool)
}

// Aborted is the panic value a Controller raises from blocking calls
// after the run aborts; the per-task wrapper recovers it, reports a
// clean (non-failed) End, and lets the goroutine exit.
type Aborted struct{}

// runControlled executes the program under the controller: every task
// is a goroutine gated by the controller's token, and every shared
// access yields first. The root task wraps globals initialization and
// main in an implicit finish scope so the run joins all tasks.
func (r *runner) runControlled(prog *program) (*ParallelResult, error) {
	r.meter.SetPhase("controlled-run")
	root := r.ctl.Register(-1)
	r.spawnTask(root, func(c *tctx) {
		scope := r.ctl.FinishEnter(c.id)
		// Globals initialize on the root task before main; allocation
		// order (and so array loc numbering) matches a capture's because
		// no other task exists yet.
		r.main(c, prog)
		r.ctl.FinishWait(c.id, scope)
	})
	r.wg.Wait()
	if r.firstErr != nil {
		return nil, r.firstErr
	}
	return &ParallelResult{
		Output: r.out.String(),
		State:  RenderState(r.info, r.globals),
	}, nil
}

// spawnTask launches one controlled task goroutine: Begin blocks until
// the controller grants the token, the body runs, and End always fires
// exactly once — including when the task unwinds on a budget trip, a
// runtime fault, or a run abort.
func (r *runner) spawnTask(id int, body func(*tctx)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		failed := false
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(Aborted); !ok {
					failed = true
					r.recordPanic(p)
				}
			}
			r.ctl.End(id, failed)
		}()
		r.ctl.Begin(id)
		body(&tctx{id: id})
	}()
}

// recordPanic converts a task panic into the run's error, keeping only
// the first failure (the abort wakes the rest, whose unwinding is a
// consequence, not a cause).
func (r *runner) recordPanic(p any) {
	var err error
	switch v := p.(type) {
	case guard.Bail:
		err = v.Err
	case *RuntimeError:
		err = v
	case error:
		err = fmt.Errorf("controlled run: panic: %w", v)
	default:
		err = fmt.Errorf("controlled run: panic: %v", v)
	}
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// yield offers the controller a preemption point; a no-op outside
// controlled runs and inside isolated bodies (holding the token through
// the whole body is exactly the mutual exclusion isolated promises, so
// no schedule can interleave with it).
func (r *runner) yield(c *tctx, op PointOp, loc uint64) {
	if r.ctl == nil || c.isoDepth > 0 {
		return
	}
	r.ctl.Yield(c.id, Point{Op: op, Loc: loc, Pos: c.pos})
}
