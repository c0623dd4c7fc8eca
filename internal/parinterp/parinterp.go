// Package parinterp executes HJ-lite programs with real parallelism:
// async statements become taskpar tasks (goroutines or work-stealing
// pool workers) and finish statements become taskpar finish scopes.
//
// It implements the same semantics as the canonical sequential
// interpreter (async bodies capture locals by value; arrays and globals
// are shared). It is intended for DATA-RACE-FREE programs — the
// evaluation runs it only on expert-written or tool-repaired programs;
// running a racy program yields the corresponding Go-level races.
//
// A second execution mode serves the opposite purpose: with
// Options.Controller set, the run is fully serialized under an external
// scheduler — one logical task at a time, a named yield point before
// every shared-memory access, spawn, and print — so an adversarial
// controller (internal/adversary) can steer racy programs into chosen
// interleavings deterministically and without Go-level races.
//
// Both modes run the same code: Run compiles the checked program into
// closures once (compile.go) and executes them.
package parinterp

import (
	"bytes"
	"sync"

	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/taskpar"
)

// Options configures a parallel run.
type Options struct {
	// Executor runs the tasks; nil means a fresh goroutine executor.
	// Ignored in controlled mode.
	Executor *taskpar.Executor
	// Meter charges coarse work units (loop iterations, calls, task
	// spawns) against the shared pipeline budget and aborts the run with
	// a typed error on cancellation, deadline, or op exhaustion. Nil
	// means unlimited. Charging is deliberately coarse — the parallel
	// run's cost model feeds no analysis, so per-expression atomics would
	// be pure overhead.
	Meter *guard.Meter
	// Controller, when set, switches the run into controlled mode: tasks
	// become token-gated goroutines, every shared access yields to the
	// controller first, and array locations are numbered exactly like the
	// sequential detector's (globals at 1+slot, arrays from
	// 1+GlobalCount at allocation). See the Controller contract.
	Controller Controller
}

// Result of a parallel run.
type Result struct {
	Output string
	// State is the rendered final global state (controlled runs only;
	// see interp.RenderState). Schedule divergence is judged on Output
	// and State together.
	State string
}

// tctx is the per-task execution context threaded through the compiled
// code: the taskpar context in free-running mode, or the controller
// task id in controlled mode, plus the innermost statement position
// (read by controlled-mode yields) and the value of the innermost
// executed return.
type tctx struct {
	tp       *taskpar.Ctx // nil in controlled mode
	id       int          // controller task id (controlled mode)
	pos      token.Pos    // innermost statement position
	isoDepth int          // isolated-statement nesting depth (this task)
	ret      interp.Value
}

// Run executes the checked program in parallel.
func Run(info *sem.Info, opts Options) (res *Result, err error) {
	pi := &par{
		info:    info,
		globals: make([]interp.Value, info.GlobalCount),
		meter:   opts.Meter,
		ctl:     opts.Controller,
	}
	prog := pi.compile()
	if pi.ctl != nil {
		return pi.runControlled(prog, opts)
	}
	pi.classMu = make([]sync.Mutex, maxLockClass(info.Prog))
	exec := opts.Executor
	if exec == nil {
		exec = taskpar.NewGoroutineExecutor()
	}

	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(guard.Bail); ok {
				res, err = nil, b.Err
				return
			}
			if re, ok := r.(*interp.RuntimeError); ok {
				res, err = nil, re
				return
			}
			panic(r)
		}
	}()

	opts.Meter.SetPhase("parallel-run")
	// Globals initialize sequentially before main (no tasks yet).
	exec.Finish(func(c *taskpar.Ctx) {
		// Injected inside the root finish so an armed panic exercises the
		// executor's propagation path, not just this function's recover.
		if ferr := faults.Inject(faults.ParallelRun); ferr != nil {
			panic(guard.Bail{Err: ferr})
		}
		tc := &tctx{tp: c}
		for _, g := range prog.globals {
			g(tc)
		}
		pi.invoke(tc, prog.main, make(frame, prog.main.size))
	})
	return &Result{Output: pi.out.String()}, nil
}

type par struct {
	info    *sem.Info
	globals []interp.Value
	meter   *guard.Meter

	outMu sync.Mutex
	out   bytes.Buffer

	// isoMu is the global isolated lock (free-running mode). A class-0
	// isolated body write-locks it, excluding every other isolated body.
	// A class-c body (c > 0) read-locks isoMu — so any number of
	// nonzero-class bodies run concurrently with each other while class 0
	// is excluded — and then locks classMu[c-1] to exclude its own class.
	// Controlled mode needs no locks — the scheduler token plus yield
	// suppression inside isolated bodies already makes them atomic.
	isoMu   sync.RWMutex
	classMu []sync.Mutex

	// Controlled-mode state: the external scheduler, the next array
	// location (allocation is serialized by the token, so no lock), the
	// spawned-task join group, and the first failure.
	ctl      Controller
	nextLoc  uint64
	wg       sync.WaitGroup
	errMu    sync.Mutex
	firstErr error
}

// tick charges one coarse work unit; it panics a guard.Bail carrying the
// meter's typed error when the budget trips or the run is canceled. The
// Bail unwinds the current task, propagates through the executor's
// finish-scope panic channel, and is converted back to an error at Run.
func (p *par) tick() {
	if p.meter == nil {
		return
	}
	if err := p.meter.AddOps(1); err != nil {
		panic(guard.Bail{Err: err})
	}
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

func zeroValue(t ast.Type) interp.Value {
	switch tt := t.(type) {
	case *ast.PrimType:
		switch tt.Kind {
		case ast.Int:
			return interp.IntV(0)
		case ast.Float:
			return interp.FloatV(0)
		case ast.Bool:
			return interp.BoolV(false)
		default:
			return interp.StringV("")
		}
	case *ast.ArrayType:
		return interp.Value{K: interp.KArray}
	}
	return interp.VoidV()
}
