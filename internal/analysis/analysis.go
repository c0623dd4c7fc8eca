// Package analysis implements static analysis of HJ-lite programs: a
// conservative may-happen-in-parallel (MHP) relation over statements
// derived from the async/finish structure, per-statement read/write
// effect summaries, and the static race-candidate set (MHP pairs with
// conflicting effects). It also hosts the diagnostics framework and the
// lint checks behind cmd/hjvet.
//
// The analysis is deliberately over-approximate: an async inside a loop
// is treated as unboundedly many concurrent instances, calls are
// resolved context-insensitively through per-function summaries, and
// array effects are tracked per alias class of array bases (no element
// or index precision). The payoff is a soundness guarantee relative to
// the dynamic detectors: every race the ESP-Bags or vector-clock engine
// can observe on any input is between statements the MHP relation marks
// parallel and whose summaries conflict — so the static candidate set
// contains the dynamic race set (asserted by TestStaticCoversDynamic).
package analysis

import (
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
)

// stmtRec is one indexed statement with its enclosing function (nil for
// a global initializer).
type stmtRec struct {
	stmt ast.Stmt
	fn   *ast.FuncDecl
}

// Result holds everything the analysis computed over one program. It is
// immutable after Analyze except for the per-candidate covered marks
// (MarkCovered), which accumulate dynamic-coverage information across
// detector runs.
type Result struct {
	info *sem.Info

	// Statement universe, in deterministic program order: global
	// initializers first, then each function body in declaration order
	// (for-loop Init and Post are statements of their own).
	stmts  []stmtRec
	byStmt map[ast.Stmt]int

	// asyncs marks the statement IDs that are AsyncStmts.
	asyncs bitset

	// isod marks statement IDs syntactically inside an isolated body;
	// isoClass[i] is the lock class of the outermost isolated statement
	// containing i (meaningful only when isod.has(i)). Two isolated
	// statements exclude each other when either class is 0 (the global
	// lock) or the classes are equal; bodies of different nonzero
	// classes run concurrently, so their statements stay candidates.
	// The dynamic detectors suppress the same pairs via the per-access
	// isolation bit and class.
	isod     bitset
	isoClass []int

	// Per-function summaries (fixpoint over the call graph):
	// contains(f) = statements possibly executed during a call to f,
	// escape(f) = statements possibly still running after the call
	// returns (asyncs spawned inside f with no enclosing finish).
	contains map[*ast.FuncDecl]bitset
	escapes  map[*ast.FuncDecl]bitset

	// all[i] = statements possibly executed while statement i runs
	// (itself, nested statements, callee bodies transitively).
	// esc[i]  = statements possibly still running after i completes.
	// liveAt[i] = statements of earlier asyncs possibly still running
	// when i starts (the "live set" flowing through the MHP walk).
	// mhp[i]  = statements that may run in parallel with i; mhp[i] may
	// contain i itself (an async body inside a loop races with its own
	// other instances).
	all, esc, liveAt, mhp []bitset

	// Abstract locations and per-statement effects over them.
	locs *locTable
	eff  []effect

	cands   []Candidate
	covered []bool

	mhpPairs int
}

// Analyze runs the full static analysis over a checked program. sp may
// be nil (the obs span API is nil-safe); child spans are recorded for
// the three stages.
func Analyze(info *sem.Info, sp *obs.Span) *Result {
	r := &Result{
		info:     info,
		byStmt:   make(map[ast.Stmt]int),
		contains: make(map[*ast.FuncDecl]bitset),
		escapes:  make(map[*ast.FuncDecl]bitset),
	}
	r.index()

	msp := sp.Child("vet/mhp")
	r.summaries()
	r.walkMHP()
	msp.SetInt("stmts", int64(len(r.stmts))).SetInt("mhp_pairs", int64(r.mhpPairs)).End()

	esp := sp.Child("vet/effects")
	r.buildEffects()
	esp.SetInt("locations", int64(r.locs.n)).End()

	csp := sp.Child("vet/candidates")
	r.buildCandidates()
	csp.SetInt("candidates", int64(len(r.cands))).End()

	obs.Default().Counter("vet.runs").Add(1)
	obs.Default().Counter("vet.candidates").Add(int64(len(r.cands)))
	obs.Default().Counter("vet.mhp_pairs").Add(int64(r.mhpPairs))
	return r
}

// index assigns dense IDs to every statement in deterministic program
// order and records which are asyncs.
func (r *Result) index() {
	add := func(s ast.Stmt, fn *ast.FuncDecl) {
		if _, dup := r.byStmt[s]; dup {
			return
		}
		r.byStmt[s] = len(r.stmts)
		r.stmts = append(r.stmts, stmtRec{stmt: s, fn: fn})
	}
	for _, g := range r.info.Prog.Globals {
		add(g, nil)
	}
	for _, fn := range r.info.Prog.Funcs {
		fn := fn
		for _, s := range fn.Body.Stmts {
			ast.InspectStmts(s, func(st ast.Stmt) { add(st, fn) })
		}
	}
	n := len(r.stmts)
	r.asyncs = newBitset(n)
	r.isod = newBitset(n)
	r.isoClass = make([]int, n)
	for i, rec := range r.stmts {
		switch st := rec.stmt.(type) {
		case *ast.AsyncStmt:
			r.asyncs.set(i)
		case *ast.IsolatedStmt:
			for _, s := range st.Body.Stmts {
				ast.InspectStmts(s, func(in ast.Stmt) {
					if id, ok := r.byStmt[in]; ok {
						// Statements are visited outermost-isolated
						// first, and the outermost lock is the one that
						// governs exclusion, so the first class sticks.
						if !r.isod.has(id) {
							r.isod.set(id)
							r.isoClass[id] = st.LockClass
						}
					}
				})
			}
		}
	}
}

// stmtCallees returns the user functions that statement s may call
// directly (through its own expressions, not nested statements).
func (r *Result) stmtCallees(s ast.Stmt) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, e := range ast.StmtExprs(s) {
		ast.InspectExpr(e, func(x ast.Expr) {
			if call, ok := x.(*ast.CallExpr); ok {
				if fn, ok := call.Target.(*ast.FuncDecl); ok {
					out = append(out, fn)
				}
			}
		})
	}
	return out
}
