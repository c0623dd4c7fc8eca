package analysis

import (
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
)

// This file computes conservative per-statement read/write effect
// summaries over a finite universe of abstract locations.
//
// The dynamic detectors instrument exactly two kinds of accesses:
// global variable slots (loadVar/storeVar on globals) and array
// elements (base + index). Locals and parameters are task-private —
// async bodies capture a by-value snapshot of the parent frame (HJ
// final-variable semantics) — so they can never race and need no
// locations. The static universe is therefore:
//
//   - one location per global symbol (the variable's own slot; for an
//     array-typed global this is the header holding the reference), and
//   - one location per alias class of array objects, where classes are
//     computed by union-find over every array-typed assignment,
//     initializer, argument→parameter binding, and return. All elements
//     of all arrays in a class are conflated into the single class
//     location, and nested array levels collapse into the same class.
//
// make() creates a fresh region and unions nothing, so provably
// disjoint arrays (two separate makes never assigned together) land in
// different classes.

// retKey identifies the abstract region returned by a function.
type retKey struct{ fn *ast.FuncDecl }

// paramKey identifies the abstract region of a function parameter.
// Parameter symbols are only reachable through idents in the body, so
// call-site bindings union against this stable key and ident visits
// union the symbol into it.
type paramKey struct {
	fn *ast.FuncDecl
	i  int
}

// locTable assigns dense location IDs: globals first (slot order), then
// one per array alias class in deterministic program-walk order.
type locTable struct {
	parent map[any]any // union-find over *sem.Symbol / retKey / paramKey
	id     map[any]int // root → location ID
	names  []string
	n      int
}

func newLocTable() *locTable {
	return &locTable{parent: make(map[any]any), id: make(map[any]int)}
}

func (t *locTable) find(k any) any {
	p, ok := t.parent[k]
	if !ok || p == k {
		return k
	}
	root := t.find(p)
	t.parent[k] = root
	return root
}

func (t *locTable) union(a, b any) {
	if a == nil || b == nil {
		return
	}
	ra, rb := t.find(a), t.find(b)
	if ra != rb {
		t.parent[ra] = rb
	}
}

// effect is one statement's summary: the abstract locations it may
// read and may write through its own expressions (callee effects are
// attributed to the callee's statements, which MHP covers separately).
type effect struct {
	reads, writes bitset
}

func (e effect) empty() bool { return e.reads.empty() && e.writes.empty() }

// buildEffects computes the alias classes and the per-statement
// summaries.
func (r *Result) buildEffects() {
	t := newLocTable()
	r.locs = t

	// Pass 1: alias-class unions over the whole program.
	for _, g := range r.info.Prog.Globals {
		r.unionStmt(g, nil, t)
	}
	for _, fn := range r.info.Prog.Funcs {
		fn := fn
		for _, s := range fn.Body.Stmts {
			ast.InspectStmts(s, func(st ast.Stmt) { r.unionStmt(st, fn, t) })
		}
	}

	// Pass 2: deterministic location numbering. Globals get their slot
	// index; array classes are numbered in first-touch program order.
	for _, sym := range r.info.GlobalSyms {
		t.names = append(t.names, sym.Name)
		t.n++
	}
	classLoc := func(k any, name string) {
		if k == nil {
			return
		}
		root := t.find(k)
		if _, seen := t.id[root]; !seen {
			t.id[root] = t.n
			t.names = append(t.names, name+"[]")
			t.n++
		}
	}
	for _, sym := range r.info.GlobalSyms {
		if _, ok := sym.Type.(*ast.ArrayType); ok {
			classLoc(sym, sym.Name)
		}
	}
	for _, rec := range r.stmts {
		for _, e := range ast.StmtExprs(rec.stmt) {
			ast.InspectExpr(e, func(x ast.Expr) {
				if id, ok := x.(*ast.Ident); ok {
					if sym, ok := id.Sym.(*sem.Symbol); ok {
						if _, arr := sym.Type.(*ast.ArrayType); arr {
							classLoc(sym, sym.Name)
						}
					}
				}
			})
		}
	}

	// Pass 3: per-statement effects.
	r.eff = make([]effect, len(r.stmts))
	for i, rec := range r.stmts {
		r.eff[i] = r.stmtEffect(rec.stmt, t)
	}
}

// regionOf returns the union-find key for the array object an
// expression evaluates to, or nil when it is not an array (or is a
// fresh make).
func (r *Result) regionOf(e ast.Expr, fn *ast.FuncDecl, t *locTable) any {
	switch ex := e.(type) {
	case *ast.Ident:
		if sym, ok := ex.Sym.(*sem.Symbol); ok {
			if _, arr := sym.Type.(*ast.ArrayType); arr {
				return sym
			}
		}
	case *ast.IndexExpr:
		// a[i] of a nested array stays in a's class (levels conflate).
		if r.isArray(e) {
			return r.regionOf(ex.X, fn, t)
		}
	case *ast.CallExpr:
		if callee, ok := ex.Target.(*ast.FuncDecl); ok && callee.Ret != nil {
			if _, arr := callee.Ret.(*ast.ArrayType); arr {
				return retKey{fn: callee}
			}
		}
	}
	return nil
}

func (r *Result) isArray(e ast.Expr) bool {
	ty, ok := r.info.ExprType[e]
	if !ok {
		return false
	}
	_, arr := ty.(*ast.ArrayType)
	return arr
}

// unionStmt records the alias-class unions a single statement induces.
func (r *Result) unionStmt(s ast.Stmt, fn *ast.FuncDecl, t *locTable) {
	switch st := s.(type) {
	case *ast.VarDeclStmt:
		if st.Init != nil {
			if sym, ok := st.Sym.(*sem.Symbol); ok {
				if _, arr := sym.Type.(*ast.ArrayType); arr {
					t.union(sym, r.regionOf(st.Init, fn, t))
				}
			}
		}
	case *ast.AssignStmt:
		if r.isArray(st.RHS) || r.isArray(st.LHS) {
			t.union(r.regionOf(st.LHS, fn, t), r.regionOf(st.RHS, fn, t))
		}
	case *ast.ReturnStmt:
		if fn != nil && st.Value != nil && r.isArray(st.Value) {
			t.union(retKey{fn: fn}, r.regionOf(st.Value, fn, t))
		}
	}
	// Calls and parameter idents can appear in any expression position.
	for _, e := range ast.StmtExprs(s) {
		ast.InspectExpr(e, func(x ast.Expr) {
			switch ex := x.(type) {
			case *ast.CallExpr:
				callee, ok := ex.Target.(*ast.FuncDecl)
				if !ok {
					return
				}
				for i, a := range ex.Args {
					if i < len(callee.Params) && r.isArray(a) {
						t.union(paramKey{fn: callee, i: i}, r.regionOf(a, fn, t))
					}
				}
			case *ast.Ident:
				if sym, ok := ex.Sym.(*sem.Symbol); ok && sym.Kind == sem.ParamVar {
					if _, arr := sym.Type.(*ast.ArrayType); arr && fn != nil {
						t.union(sym, paramKey{fn: fn, i: sym.Slot})
					}
				}
			}
		})
	}
}

// classOf returns the class location ID of an array region key, or -1.
func (t *locTable) classOf(k any) int {
	if k == nil {
		return -1
	}
	if id, ok := t.id[t.find(k)]; ok {
		return id
	}
	return -1
}

// stmtEffect computes the read/write summary of one statement's own
// expressions.
func (r *Result) stmtEffect(s ast.Stmt, t *locTable) effect {
	e := effect{reads: newBitset(t.n), writes: newBitset(t.n)}
	fn := r.stmts[r.byStmt[s]].fn

	readExpr := func(x ast.Expr) {
		ast.InspectExpr(x, func(sub ast.Expr) {
			switch ex := sub.(type) {
			case *ast.Ident:
				if sym, ok := ex.Sym.(*sem.Symbol); ok && sym.Kind == sem.GlobalVar {
					e.reads.set(sym.Slot)
				}
			case *ast.IndexExpr:
				if cls := t.classOf(r.regionOf(ex.X, fn, t)); cls >= 0 {
					e.reads.set(cls)
				}
			case *ast.CallExpr:
				// Builtins that take arrays (len, print, println) may
				// touch elements; charge a conservative class read.
				if _, user := ex.Target.(*ast.FuncDecl); !user {
					for _, a := range ex.Args {
						if r.isArray(a) {
							if cls := t.classOf(r.regionOf(a, fn, t)); cls >= 0 {
								e.reads.set(cls)
							}
						}
					}
				}
			}
		})
	}

	switch st := s.(type) {
	case *ast.AssignStmt:
		readExpr(st.RHS)
		switch lhs := st.LHS.(type) {
		case *ast.Ident:
			if sym, ok := lhs.Sym.(*sem.Symbol); ok && sym.Kind == sem.GlobalVar {
				e.writes.set(sym.Slot)
				if st.Op != token.ASSIGN { // compound assignment also reads
					e.reads.set(sym.Slot)
				}
			}
		case *ast.IndexExpr:
			readExpr(lhs.X)
			readExpr(lhs.Index)
			if cls := t.classOf(r.regionOf(lhs.X, fn, t)); cls >= 0 {
				e.writes.set(cls)
				if st.Op != token.ASSIGN {
					e.reads.set(cls)
				}
			}
		}
	case *ast.VarDeclStmt:
		if st.Init != nil {
			readExpr(st.Init)
		}
		if sym, ok := st.Sym.(*sem.Symbol); ok && sym.Kind == sem.GlobalVar {
			e.writes.set(sym.Slot)
		}
	default:
		for _, x := range ast.StmtExprs(s) {
			readExpr(x)
		}
	}
	return e
}

// LocationName renders location id for diagnostics ("sum" for a global,
// "a[]" for the element class of arrays aliasing a).
func (r *Result) LocationName(id int) string {
	if id >= 0 && id < len(r.locs.names) {
		return r.locs.names[id]
	}
	return "?"
}
