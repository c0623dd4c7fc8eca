package interp

import (
	"sync"

	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/taskpar"
)

// ParallelOptions configures a parallel run.
type ParallelOptions struct {
	// Executor runs the tasks; nil means a fresh goroutine executor.
	// Ignored in controlled runs.
	Executor *taskpar.Executor
	// Meter charges coarse work units (loop iterations, calls, task
	// spawns) against the shared pipeline budget and aborts the run with
	// a typed error on cancellation, deadline, or op exhaustion. Nil
	// means unlimited. Charging is deliberately coarse — the parallel
	// run's cost model feeds no analysis, so per-expression atomics would
	// be pure overhead.
	Meter *guard.Meter
	// Controller, when set, makes the run controlled: tasks become
	// token-gated goroutines, every shared access yields to the
	// controller first, and locations are numbered exactly like a
	// capture's (globals at 1+slot, arrays from 1+GlobalCount at
	// allocation). See the Controller contract.
	Controller Controller
}

// ParallelResult is the result of a parallel run.
type ParallelResult struct {
	Output string
	// State is the rendered final global state (controlled runs only;
	// see RenderState). Schedule divergence is judged on Output and
	// State together.
	State string
}

// RunParallel executes the checked program in parallel: free-running on
// opts.Executor, or controlled by opts.Controller.
func RunParallel(info *sem.Info, opts ParallelOptions) (*ParallelResult, error) {
	if opts.Controller != nil {
		r := newRunner(info, controlled, opts.Meter)
		r.ctl = opts.Controller
		return r.runControlled(r.compile())
	}
	r := newRunner(info, freeRunning, opts.Meter)
	prog := r.compile()
	r.classMu = make([]sync.Mutex, maxLockClass(info.Prog))
	exec := opts.Executor
	if exec == nil {
		exec = taskpar.NewGoroutineExecutor()
	}
	opts.Meter.SetPhase("parallel-run")
	err := catch(func() {
		// Globals initialize sequentially before main (no tasks yet).
		exec.Finish(func(tc *taskpar.Ctx) {
			// Injected inside the root finish so an armed panic exercises
			// the executor's propagation path, not just this function's
			// recover.
			if ferr := faults.Inject(faults.ParallelRun); ferr != nil {
				panic(guard.Bail{Err: ferr})
			}
			r.main(&tctx{tp: tc}, prog)
		})
	})
	if err != nil {
		return nil, err
	}
	return &ParallelResult{Output: r.out.String()}, nil
}

// isolated runs a free-running isolated body under its lock class's
// mutual exclusion (outermost level only — the locks are not
// re-entrant, but a nested isolated is already exclusive under the
// outermost one's class). Class 0 write-locks the global isolated lock;
// class c > 0 read-locks it (excluding class 0 but not other classes)
// and locks its own class mutex.
func (r *runner) isolated(c *tctx, f frame, cls int, body stmtFn) bool {
	if c.isoDepth == 0 {
		if cls > 0 && cls <= len(r.classMu) {
			r.isoMu.RLock()
			defer r.isoMu.RUnlock()
			r.classMu[cls-1].Lock()
			defer r.classMu[cls-1].Unlock()
		} else {
			r.isoMu.Lock()
			defer r.isoMu.Unlock()
		}
	}
	c.isoDepth++
	defer func() { c.isoDepth-- }()
	return body(c, f)
}

// maxLockClass scans the program for the highest isolated lock class, to
// size the per-class mutex table before the run starts.
func maxLockClass(prog *ast.Program) int {
	maxCls := 0
	var walk func(b *ast.Block)
	walk = func(b *ast.Block) {
		for _, s := range b.Stmts {
			if iso, ok := s.(*ast.IsolatedStmt); ok && iso.LockClass > maxCls {
				maxCls = iso.LockClass
			}
			for _, nb := range ast.StmtBlocks(s) {
				walk(nb)
			}
		}
	}
	for _, fn := range prog.Funcs {
		walk(fn.Body)
	}
	return maxCls
}
