// Package coverage implements test-coverage analysis for the repair
// tool — the paper's §9 future-work item: "test coverage analysis to
// evaluate the suitability of a given set of test cases for program
// repair". A test input can only drive repairs for the code it actually
// executes; low async coverage warns that races may hide in unexecuted
// spawns.
package coverage

import (
	"fmt"

	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/trace"
)

// Coverage summarizes how much of the program one test input exercised.
type Coverage struct {
	// Asyncs/Finishes: static parallel constructs vs those executed at
	// least once.
	Asyncs, AsyncsRun     int
	Finishes, FinishesRun int
	// Stmts: top-level statement slots across all blocks vs those
	// covered by at least one step or construct instance.
	Stmts, StmtsRun int
	// Funcs: declared functions vs those entered.
	Funcs, FuncsRun int
}

// AsyncCoverage returns the fraction of async statements executed.
func (c Coverage) AsyncCoverage() float64 { return frac(c.AsyncsRun, c.Asyncs) }

// StmtCoverage returns the fraction of statements executed.
func (c Coverage) StmtCoverage() float64 { return frac(c.StmtsRun, c.Stmts) }

func frac(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// String renders the summary.
func (c Coverage) String() string {
	return fmt.Sprintf("asyncs %d/%d, finishes %d/%d, statements %d/%d, functions %d/%d",
		c.AsyncsRun, c.Asyncs, c.FinishesRun, c.Finishes, c.StmtsRun, c.Stmts, c.FuncsRun, c.Funcs)
}

// Adequate reports whether the input suffices for repair confidence:
// every async statement must have executed (unexecuted spawns can hide
// races the repair cannot see).
func (c Coverage) Adequate() bool { return c.AsyncsRun == c.Asyncs }

// Measure records the canonical execution's event trace and computes
// the coverage of the program under its built-in input. A statement is
// covered when the trace has a step boundary at it or opens a construct
// at it. The events are read directly rather than through a replayed
// S-DPST, whose step ranges can miss a statement (DESIGN.md §8). The
// execution charges m, the pipeline's budget meter; a nil meter is
// unlimited.
func Measure(info *sem.Info, m *guard.Meter) (Coverage, error) {
	rec := trace.NewRecorder()
	if _, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Trace: rec, Meter: m}); err != nil {
		return Coverage{}, err
	}
	return fromTrace(info.Prog, rec.Trace()), nil
}

func fromTrace(prog *ast.Program, tr *trace.Trace) Coverage {
	var c Coverage

	// Static totals.
	asyncSet := map[ast.Stmt]bool{}
	finishSet := map[ast.Stmt]bool{}
	ast.Inspect(prog, func(s ast.Stmt) {
		switch s.(type) {
		case *ast.AsyncStmt:
			asyncSet[s] = false
		case *ast.FinishStmt:
			finishSet[s] = false
		}
	})
	c.Asyncs = len(asyncSet)
	c.Finishes = len(finishSet)
	blocks := map[int32]*ast.Block{}
	for _, b := range ast.Blocks(prog) {
		blocks[int32(b.ID)] = b
		c.Stmts += len(b.Stmts)
	}
	c.Funcs = len(prog.Funcs)

	// Dynamic marks from step boundaries and construct pushes.
	type slot struct {
		block, idx int32
	}
	covered := map[slot]bool{}
	funcsRun := map[*ast.Block]bool{}
	tr.Events(func(_ int, e *trace.Event) bool {
		k := trace.Kind(e.Kind)
		if k != trace.EvStep && k != trace.EvPush {
			return true
		}
		push := k == trace.EvPush
		if push && dpst.Kind(e.NKind) == dpst.Scope && dpst.ScopeClass(e.Class) == dpst.CallScope {
			funcsRun[blocks[e.Body]] = true
		}
		b := blocks[e.Block]
		if b == nil || e.Stmt < 0 || int(e.Stmt) >= len(b.Stmts) {
			return true
		}
		covered[slot{e.Block, e.Stmt}] = true
		if push {
			switch dpst.Kind(e.NKind) {
			case dpst.Async:
				asyncSet[b.Stmts[e.Stmt]] = true
			case dpst.Finish:
				finishSet[b.Stmts[e.Stmt]] = true
			}
		}
		return true
	})
	for _, run := range asyncSet {
		if run {
			c.AsyncsRun++
		}
	}
	for _, run := range finishSet {
		if run {
			c.FinishesRun++
		}
	}
	c.StmtsRun = len(covered)
	for _, fn := range prog.Funcs {
		if funcsRun[fn.Body] {
			c.FuncsRun++
		}
	}
	return c
}
