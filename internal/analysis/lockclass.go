package analysis

import (
	"finishrepair/internal/analysis/commute"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
)

// This file infers per-location lock classes for isolated repair from
// the effect-region partition. Two isolated bodies need mutual
// exclusion only when their footprints may overlap; when a recognized
// commutative update touches exactly one abstract location, the repair
// can key its isolated block to that location's class instead of the
// single global isolated lock, and updates of provably different
// locations run concurrently.
//
// Class numbering: class 0 is the global exclusive lock (source-level
// isolated, and any body whose footprint is not a single location);
// class id+1 is the lock of abstract location id (the same dense IDs
// effects.go assigns — global slots first, then array alias classes).
// Keying classes to effect locations makes the scheme sound by
// construction: bodies of different nonzero classes have disjoint
// effect footprints, so they cannot race no matter how they interleave.

// Locations computes just the statement index and the abstract-location
// partition of a checked program — the subset of Analyze the lock-class
// inference needs, skipping the MHP fixpoint and candidate
// construction.
func Locations(info *sem.Info) *Result {
	r := &Result{
		info:     info,
		byStmt:   make(map[ast.Stmt]int),
		contains: make(map[*ast.FuncDecl]bitset),
		escapes:  make(map[*ast.FuncDecl]bitset),
	}
	r.index()
	r.buildEffects()
	return r
}

// LockClassOf returns the lock class an isolated block wrapping the
// recognized update should carry: location+1 when the region's whole
// effect footprint is exactly the update's target location, else 0 (the
// global lock). Statements the analysis has not indexed (e.g. regions
// inside already-rewritten blocks) conservatively get class 0.
func (r *Result) LockClassOf(u commute.Update) int {
	target := r.targetLocation(u.Target)
	if target < 0 {
		return 0
	}
	foot := newBitset(r.locs.n)
	known := true
	for i := u.Lo; i <= u.Hi && i < len(u.Block.Stmts); i++ {
		ast.InspectStmts(u.Block.Stmts[i], func(s ast.Stmt) {
			id, ok := r.byStmt[s]
			if !ok {
				known = false
				return
			}
			foot.or(r.eff[id].reads)
			foot.or(r.eff[id].writes)
		})
	}
	if !known {
		return 0
	}
	single := true
	foot.forEach(func(loc int) {
		if loc != target {
			single = false
		}
	})
	if !single || !foot.has(target) {
		return 0
	}
	return target + 1
}

// targetLocation maps a recognized update's target lvalue to its
// abstract location ID, or -1.
func (r *Result) targetLocation(target ast.Expr) int {
	switch x := target.(type) {
	case *ast.Ident:
		if sym, ok := x.Sym.(*sem.Symbol); ok && sym.Kind == sem.GlobalVar {
			return sym.Slot
		}
	case *ast.IndexExpr:
		return r.locs.classOf(r.regionOf(x.X, nil, r.locs))
	}
	return -1
}
