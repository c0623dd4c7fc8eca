package parinterp

import (
	"fmt"

	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
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

// Controller serializes a controlled parallel run: the interpreter
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

// runControlled executes the program under opts.Controller: every task
// is a goroutine gated by the controller's token, and every shared
// access yields first. The root task wraps globals initialization and
// main in an implicit finish scope so the run joins all tasks.
func (p *par) runControlled(prog *program, opts Options) (*Result, error) {
	opts.Meter.SetPhase("controlled-run")
	p.nextLoc = 1 + uint64(p.info.GlobalCount)
	root := p.ctl.Register(-1)
	p.spawnTask(root, func(c *tctx) {
		scope := p.ctl.FinishEnter(c.id)
		// Globals initialize on the root task before main; allocation
		// order (and so array loc numbering) matches the sequential
		// interpreter because no other task exists yet.
		for _, g := range prog.globals {
			g(c)
		}
		p.invoke(c, prog.main, make(frame, prog.main.size))
		p.ctl.FinishWait(c.id, scope)
	})
	p.wg.Wait()
	if p.firstErr != nil {
		return nil, p.firstErr
	}
	return &Result{
		Output: p.out.String(),
		State:  interp.RenderState(p.info, p.globals),
	}, nil
}

// spawnTask launches one controlled task goroutine: Begin blocks until
// the controller grants the token, the body runs, and End always fires
// exactly once — including when the task unwinds on a budget trip, a
// runtime fault, or a run abort.
func (p *par) spawnTask(id int, body func(*tctx)) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		failed := false
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Aborted); !ok {
					failed = true
					p.recordPanic(r)
				}
			}
			p.ctl.End(id, failed)
		}()
		p.ctl.Begin(id)
		body(&tctx{id: id})
	}()
}

// recordPanic converts a task panic into the run's error, keeping only
// the first failure (the abort wakes the rest, whose unwinding is a
// consequence, not a cause).
func (p *par) recordPanic(r any) {
	var err error
	switch v := r.(type) {
	case guard.Bail:
		err = v.Err
	case *interp.RuntimeError:
		err = v
	case error:
		err = fmt.Errorf("controlled run: panic: %w", v)
	default:
		err = fmt.Errorf("controlled run: panic: %v", v)
	}
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

// yield offers the controller a preemption point; a no-op outside
// controlled mode and inside isolated bodies (holding the token through
// the whole body is exactly the mutual exclusion isolated promises, so
// no schedule can interleave with it).
func (p *par) yield(c *tctx, op PointOp, loc uint64) {
	if p.ctl == nil || c.isoDepth > 0 {
		return
	}
	p.ctl.Yield(c.id, Point{Op: op, Loc: loc, Pos: c.pos})
}
