package interp

import (
	"math"

	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/taskpar"
)

// The compiler turns the checked AST into Go closures once per run. A
// closure is bound to its run (it captures *runner) and to the run's
// policy; the pool executor's workers share the closures, which hold no
// mutable state of their own.
//
// Expressions whose static type (sem.Info.ExprType) is int, float or
// bool compile to closures returning int64, float64 or bool, and an
// indexed or measured array to a closure returning *Array; other values
// (strings, arrays as values, void calls) come from Value closures. A
// typed closure trusts the checker: a local's slot, an array element or
// a call result of static type int holds an int Value.
//
// Every closure keeps this observable order, because a capture's event
// stream and work counts, and a controlled run's yield points (their
// order, locations and positions), depend on it; TestCaptureGolden in
// internal/trace and TestScheduleOutcomesGolden in internal/adversary
// pin them:
//
//   - in a sequential run every statement and expression node ticks one
//     work unit when it starts, before its operands, except finish and
//     isolated, which are free; a statement records its step boundary
//     just before its tick;
//   - a statement sets c.pos when it starts, and a loop resets it at
//     each back-edge; a for statement's init leaves its own position in
//     place for the first condition;
//   - operands evaluate left to right; an assignment evaluates its
//     right-hand side before the array and index of an indexed target;
//   - a compound assignment to shared memory accesses the cell for the
//     read, computes, accesses it for the write, and only then stores;
//   - print/println evaluate every argument before the OpPrint yield;
//   - the parallel policies charge the meter at each call (after its
//     arguments), each loop iteration and each async;
//   - a closure performs at most one float operation, so Go cannot
//     contract two into one fused multiply-add.

// frame holds one activation's parameters and locals, by sem slot.
type frame []Value

// Compiled code. A stmtFn reports whether a return statement executed;
// the returned value is in c.ret.
type (
	valFn   func(c *tctx, f frame) Value
	intFn   func(c *tctx, f frame) int64
	floatFn func(c *tctx, f frame) float64
	boolFn  func(c *tctx, f frame) bool
	arrFn   func(c *tctx, f frame) *Array
	stmtFn  func(c *tctx, f frame) bool
)

// cfunc is a compiled function. body is set after the entry is
// registered, so recursive calls resolve to it.
type cfunc struct {
	decl *ast.FuncDecl
	size int
	body stmtFn
}

// program is a compiled program: the global initializers in
// declaration order, then main.
type program struct {
	globals []func(c *tctx)
	main    *cfunc
}

type compiler struct {
	r     *runner
	info  *sem.Info
	funcs map[*ast.FuncDecl]*cfunc
}

// compile translates the program for this run. Functions are compiled
// on first reference, so code main cannot reach is never compiled.
func (r *runner) compile() *program {
	cp := &compiler{r: r, info: r.info, funcs: map[*ast.FuncDecl]*cfunc{}}
	prog := &program{}
	for _, g := range r.info.Prog.Globals {
		prog.globals = append(prog.globals, cp.global(g))
	}
	prog.main = cp.fn(r.info.Prog.Func("main"))
	return prog
}

func (cp *compiler) fn(fn *ast.FuncDecl) *cfunc {
	if cf, ok := cp.funcs[fn]; ok {
		return cf
	}
	cf := &cfunc{decl: fn, size: cp.info.FrameSize[fn]}
	cp.funcs[fn] = cf
	cf.body = cp.block(fn.Body)
	return cf
}

// invoke runs a compiled function on a frame whose parameters are set,
// in a call scope placed at the current statement site.
func (r *runner) invoke(c *tctx, cf *cfunc, f frame) Value {
	r.charge()
	r.push(&node{dpst.Scope, dpst.CallScope, cf.decl.Name, r.siteBlock, r.siteIdx, cf.decl.Body})
	v := VoidV()
	if cf.body(c, f) {
		v = c.ret
	}
	r.pop()
	return v
}

// global initializes one global. Its store is neither recorded nor a
// yield: initialization runs on the root task before any other task
// exists, ordered before everything.
func (cp *compiler) global(g *ast.VarDeclStmt) func(c *tctx) {
	r, slot, pos := cp.r, g.Sym.(*sem.Symbol).Slot, g.Pos()
	if g.Init == nil {
		z := zeroValue(g.Type)
		return func(c *tctx) { r.enter(c, pos, nil, 0); r.globals[slot] = z }
	}
	init := cp.expr(g.Init)
	return func(c *tctx) { r.enter(c, pos, nil, 0); r.globals[slot] = init(c, nil) }
}

// ----------------------------------------------------------------------
// Statements

func (cp *compiler) block(b *ast.Block) stmtFn {
	stmts := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = cp.stmt(s, b, i)
	}
	switch len(stmts) {
	case 0:
		return func(*tctx, frame) bool { return false }
	case 1:
		return stmts[0]
	case 2:
		s0, s1 := stmts[0], stmts[1]
		return func(c *tctx, f frame) bool { return s0(c, f) || s1(c, f) }
	}
	return func(c *tctx, f frame) bool {
		for _, s := range stmts {
			if s(c, f) {
				return true
			}
		}
		return false
	}
}

// stmt compiles s, recorded as statement idx of block b (a for
// statement's init and post record as the loop header, (body, -1)).
func (cp *compiler) stmt(s ast.Stmt, b *ast.Block, idx int) stmtFn {
	r, pos := cp.r, s.Pos()
	switch st := s.(type) {
	case *ast.VarDeclStmt:
		slot := st.Sym.(*sem.Symbol).Slot
		if st.Init == nil {
			z := zeroValue(st.Type)
			return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); f[slot] = z; return false }
		}
		return cp.setLocal(slot, st.Init, pos, b, idx)
	case *ast.AssignStmt:
		return cp.assign(st, b, idx)
	case *ast.ExprStmt:
		x := cp.value(st.X)
		return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); x(c, f); return false }
	case *ast.ReturnStmt:
		if st.Value == nil {
			return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); c.ret = Value{}; return true }
		}
		v := cp.expr(st.Value)
		return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); c.ret = v(c, f); return true }
	case *ast.IfStmt:
		cond, then, thenNode := cp.boolExpr(st.Cond), cp.block(st.Then), &node{dpst.Scope, dpst.IfScope, "if", b, idx, st.Then}
		var els stmtFn
		var elseNode *node
		if st.Else != nil {
			els, elseNode = cp.block(st.Else), &node{dpst.Scope, dpst.ElseScope, "else", b, idx, st.Else}
		}
		return func(c *tctx, f frame) bool {
			r.enter(c, pos, b, idx)
			if cond(c, f) {
				return r.scoped(c, f, thenNode, then)
			}
			return els != nil && r.scoped(c, f, elseNode, els)
		}
	case *ast.WhileStmt:
		cond, body := cp.boolExpr(st.Cond), cp.block(st.Body)
		loop, iter := &node{dpst.Scope, dpst.LoopScope, "while", b, idx, st.Body}, iterNode(st.Body)
		return func(c *tctx, f frame) bool {
			r.enter(c, pos, b, idx)
			r.push(loop)
			for {
				r.push(iter)
				r.step(iter.body, -1)
				if !cond(c, f) {
					r.pop()
					break
				}
				r.endStep()
				r.charge()
				if body(c, f) {
					r.pop()
					r.pop()
					return true
				}
				r.pop()
				c.pos = pos
			}
			r.pop()
			return false
		}
	case *ast.ForStmt:
		return cp.forStmt(st, b, idx)
	case *ast.AsyncStmt:
		return cp.async(st, b, idx)
	case *ast.FinishStmt:
		return cp.finish(st, b, idx)
	case *ast.IsolatedStmt:
		body, cls := cp.block(st.Body), st.LockClass
		if r.pol == freeRunning {
			return func(c *tctx, f frame) bool { c.pos = pos; return r.isolated(c, f, cls, body) }
		}
		// One task runs at a time; a controlled task holds the token
		// through the body, since yields are suppressed inside it. The
		// IsoScope class marks the region so collapse attributes its work
		// as serialized IsoWork.
		n := &node{dpst.Scope, dpst.IsoScope, "isolated", b, idx, st.Body}
		return func(c *tctx, f frame) bool {
			c.pos = pos
			c.isoDepth++
			ret := r.scoped(c, f, n, body)
			c.isoDepth--
			return ret
		}
	case *ast.BlockStmt:
		body, n := cp.block(st.Body), &node{dpst.Scope, dpst.BlockScope, "block", b, idx, st.Body}
		return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); return r.scoped(c, f, n, body) }
	}
	return func(*tctx, frame) bool { throwf("unknown statement %T", s); return false }
}

// scoped runs body inside interior node n.
func (r *runner) scoped(c *tctx, f frame, n *node, body stmtFn) bool {
	r.push(n)
	ret := body(c, f)
	r.pop()
	return ret
}

// iterNode is the per-iteration scope of a loop over body; its header
// (condition, and a for statement's init and post) records as the
// pseudo-statement (body, -1).
func iterNode(body *ast.Block) *node {
	return &node{dpst.Scope, dpst.LoopIter, "iter", body, -1, body}
}

func (cp *compiler) forStmt(st *ast.ForStmt, b *ast.Block, idx int) stmtFn {
	r, pos := cp.r, st.Pos()
	var init, post, body stmtFn
	if st.Init != nil {
		init = cp.stmt(st.Init, st.Body, -1)
	}
	if st.Post != nil {
		post = cp.stmt(st.Post, st.Body, -1)
	}
	var cond boolFn
	if st.Cond != nil {
		cond = cp.boolExpr(st.Cond)
	}
	body = cp.block(st.Body)
	loop, iter := &node{dpst.Scope, dpst.LoopScope, "for", b, idx, st.Body}, iterNode(st.Body)
	return func(c *tctx, f frame) bool {
		r.enter(c, pos, b, idx)
		r.push(loop)
		if init != nil {
			init(c, f)
			r.endStep()
		}
		for {
			r.push(iter)
			if cond != nil {
				r.step(iter.body, -1)
				if !cond(c, f) {
					r.pop()
					break
				}
				r.endStep()
			}
			r.charge()
			if body(c, f) || post != nil && post(c, f) {
				r.pop()
				r.pop()
				return true
			}
			r.pop()
			c.pos = pos
		}
		r.pop()
		return false
	}
}

func (cp *compiler) async(st *ast.AsyncStmt, b *ast.Block, idx int) stmtFn {
	r, pos, body := cp.r, st.Pos(), cp.block(st.Body)
	n := &node{dpst.Async, dpst.NotScope, "async", b, idx, st.Body}
	start := func(c *tctx) {
		if c.isoDepth > 0 {
			// Runtime backstop for the sem check: calls can smuggle an
			// async into an isolated body only if the checker was bypassed.
			throwf("async not allowed inside isolated at %s", pos)
		}
		r.enter(c, pos, b, idx)
		r.charge()
	}
	switch r.pol {
	case elide:
		// In the elision, a return inside what was an async body returns
		// from the enclosing function.
		return func(c *tctx, f frame) bool { start(c); return r.scoped(c, f, n, body) }
	case depthFirst:
		// Inline, on a by-value snapshot of the parent frame (HJ
		// final-variable capture semantics).
		return func(c *tctx, f frame) bool { start(c); r.scoped(c, f.copy(), n, body); return false }
	case controlled:
		return func(c *tctx, f frame) bool {
			start(c)
			child := f.copy()
			r.spawnTask(r.ctl.Register(c.id), func(cc *tctx) { body(cc, child) })
			r.yield(c, OpSpawn, 0)
			return false
		}
	}
	return func(c *tctx, f frame) bool {
		start(c)
		child := f.copy()
		c.tp.Async(func(cc *taskpar.Ctx) { body(&tctx{tp: cc}, child) })
		return false
	}
}

func (f frame) copy() frame {
	child := make(frame, len(f))
	copy(child, f)
	return child
}

// finish compiles a finish statement. Finish statements are free in the
// cost model, so that repaired programs have exactly the work of the
// original.
func (cp *compiler) finish(st *ast.FinishStmt, b *ast.Block, idx int) stmtFn {
	r, pos, body := cp.r, st.Pos(), cp.block(st.Body)
	start := func(c *tctx) {
		c.pos = pos
		if c.isoDepth > 0 {
			throwf("finish not allowed inside isolated at %s", pos)
		}
	}
	switch r.pol {
	case controlled:
		return func(c *tctx, f frame) bool {
			start(c)
			scope := r.ctl.FinishEnter(c.id)
			ret := body(c, f)
			r.ctl.FinishWait(c.id, scope)
			return ret
		}
	case freeRunning:
		return func(c *tctx, f frame) bool {
			start(c)
			var ret bool
			c.tp.Finish(func(tp *taskpar.Ctx) {
				inner := &tctx{tp: tp}
				if ret = body(inner, f); ret {
					c.ret = inner.ret
				}
			})
			return ret
		}
	}
	n := &node{dpst.Finish, dpst.NotScope, "finish", b, idx, st.Body}
	return func(c *tctx, f frame) bool { start(c); return r.scoped(c, f, n, body) }
}

// setLocal compiles "slot = e" for a local declaration or assignment.
func (cp *compiler) setLocal(slot int, e ast.Expr, pos token.Pos, b *ast.Block, idx int) stmtFn {
	r := cp.r
	if !rawForm(e) {
		switch cp.prim(e) {
		case ast.Int:
			x := cp.intExpr(e)
			return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); f[slot] = IntV(x(c, f)); return false }
		case ast.Float:
			x := cp.floatExpr(e)
			return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); f[slot] = FloatV(x(c, f)); return false }
		case ast.Bool:
			x := cp.boolExpr(e)
			return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); f[slot] = BoolV(x(c, f)); return false }
		}
	}
	x := cp.expr(e)
	return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); f[slot] = x(c, f); return false }
}

func (cp *compiler) assign(st *ast.AssignStmt, b *ast.Block, idx int) stmtFn {
	r, pos := cp.r, st.Pos()
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		sym := lhs.Sym.(*sem.Symbol)
		slot := sym.Slot
		if st.Op == token.ASSIGN {
			if sym.Kind != sem.GlobalVar {
				return cp.setLocal(slot, st.RHS, pos, b, idx)
			}
			x, loc := cp.expr(st.RHS), GlobalLoc(slot)
			return func(c *tctx, f frame) bool {
				r.enter(c, pos, b, idx)
				v := x(c, f)
				r.access(c, OpWrite, loc)
				r.globals[slot] = v
				return false
			}
		}
		if sym.Kind != sem.GlobalVar {
			return cp.compound(st, b, idx, func(_ *tctx, f frame) (*Value, uint64) { return &f[slot], 0 })
		}
		return cp.compound(st, b, idx, func(c *tctx, f frame) (*Value, uint64) {
			return r.global(c, slot), GlobalLoc(slot)
		})
	case *ast.IndexExpr:
		arr, idxFn, ipos := cp.arrExpr(lhs.X), cp.intExpr(lhs.Index), lhs.Pos()
		if st.Op != token.ASSIGN {
			return cp.compound(st, b, idx, func(c *tctx, f frame) (*Value, uint64) {
				a, i := arr(c, f), idxFn(c, f)
				v := r.elem(c, a, i, OpRead, ipos) // checks a before a.Base is read
				return v, a.Base + uint64(i)
			})
		}
		// The right-hand side evaluates before the array and the index.
		store := func(c *tctx, f frame) *Value {
			a, i := arr(c, f), idxFn(c, f)
			return r.elem(c, a, i, OpWrite, ipos)
		}
		if !rawForm(st.RHS) {
			switch cp.prim(st.RHS) {
			case ast.Int:
				x := cp.intExpr(st.RHS)
				return func(c *tctx, f frame) bool {
					r.enter(c, pos, b, idx)
					v := x(c, f)
					*store(c, f) = IntV(v)
					return false
				}
			case ast.Float:
				x := cp.floatExpr(st.RHS)
				return func(c *tctx, f frame) bool {
					r.enter(c, pos, b, idx)
					v := x(c, f)
					*store(c, f) = FloatV(v)
					return false
				}
			}
		}
		x := cp.expr(st.RHS)
		return func(c *tctx, f frame) bool { r.enter(c, pos, b, idx); v := x(c, f); *store(c, f) = v; return false }
	}
	return func(*tctx, frame) bool { throwf("invalid assignment target %T", st.LHS); return false }
}

// cell locates a compound assignment's target after its right-hand
// side: it accesses a shared cell for the read and returns the cell with
// the location of its write, or 0 for a local (no shared location is 0).
type cell func(c *tctx, f frame) (*Value, uint64)

// compound compiles "lhs op= rhs": the right-hand side, then the
// target's read, the operator, the write, and the store.
func (cp *compiler) compound(st *ast.AssignStmt, b *ast.Block, idx int, target cell) stmtFn {
	r, pos := cp.r, st.Pos()
	if cp.prim(st.LHS) == ast.Float {
		x, op := cp.floatExpr(st.RHS), floatArith(compoundOp(st.Op))
		return func(c *tctx, f frame) bool {
			r.enter(c, pos, b, idx)
			y := x(c, f)
			v, loc := target(c, f)
			nv := op(v.F, y)
			if loc != 0 {
				r.access(c, OpWrite, loc)
			}
			*v = FloatV(nv)
			return false
		}
	}
	// A compound division by zero reports no position.
	x, op := cp.intExpr(st.RHS), intArith(compoundOp(st.Op), token.Pos{})
	return func(c *tctx, f frame) bool {
		r.enter(c, pos, b, idx)
		y := x(c, f)
		v, loc := target(c, f)
		nv := op(v.I, y)
		if loc != 0 {
			r.access(c, OpWrite, loc)
		}
		*v = IntV(nv)
		return false
	}
}

// compoundOp maps a compound assignment to its binary operator.
func compoundOp(k token.Kind) token.Kind {
	switch k {
	case token.ADDASSIGN:
		return token.ADD
	case token.SUBASSIGN:
		return token.SUB
	case token.MULASSIGN:
		return token.MUL
	}
	return token.QUO
}

// ----------------------------------------------------------------------
// Shared memory

// elem bounds-checks a[i] (pos is the index expression's), announces
// access op on it, and returns the cell.
func (r *runner) elem(c *tctx, a *Array, i int64, op PointOp, pos token.Pos) *Value {
	if a == nil {
		throwf("index of nil array at %s", pos)
	}
	if i < 0 || i >= int64(len(a.Elems)) {
		throwf("index %d out of range [0,%d) at %s", i, len(a.Elems), pos)
	}
	r.access(c, op, a.Base+uint64(i))
	return &a.Elems[i]
}

// GlobalLoc is the location of global slot: globals take
// 1..GlobalCount (0 is no location), and arrays number their elements
// after them, in allocation order.
func GlobalLoc(slot int) uint64 { return 1 + uint64(slot) }

// global announces a read of a global and returns its cell.
func (r *runner) global(c *tctx, slot int) *Value {
	r.access(c, OpRead, GlobalLoc(slot))
	return &r.globals[slot]
}

// ----------------------------------------------------------------------
// Expressions

// prim is e's primitive kind, or -1 for arrays and void.
func (cp *compiler) prim(e ast.Expr) ast.PrimKind {
	if t, ok := cp.info.ExprType[e].(*ast.PrimType); ok {
		return t.Kind
	}
	return -1
}

// rawForm reports whether e reads a stored Value as is (a variable, an
// array element, a user call's result): such a Value is copied rather
// than re-boxed from a typed closure.
func rawForm(e ast.Expr) bool {
	switch ex := e.(type) {
	case *ast.Ident, *ast.IndexExpr:
		return true
	case *ast.CallExpr:
		_, user := ex.Target.(*ast.FuncDecl)
		return user
	}
	return false
}

// expr compiles e to a Value closure, boxing a typed closure's result.
func (cp *compiler) expr(e ast.Expr) valFn {
	if !rawForm(e) {
		switch cp.prim(e) {
		case ast.Int:
			x := cp.intExpr(e)
			return func(c *tctx, f frame) Value { return IntV(x(c, f)) }
		case ast.Float:
			x := cp.floatExpr(e)
			return func(c *tctx, f frame) Value { return FloatV(x(c, f)) }
		case ast.Bool:
			x := cp.boolExpr(e)
			return func(c *tctx, f frame) Value { return BoolV(x(c, f)) }
		}
	}
	return cp.value(e)
}

// value compiles the expression forms that produce a Value directly:
// strings, variables, elements, make, calls and print. Literals and
// operators have typed closures (expr).
func (cp *compiler) value(e ast.Expr) valFn {
	r := cp.r
	switch ex := e.(type) {
	case *ast.StringLit:
		v := StringV(ex.Value)
		return ticked(r, func(c *tctx, _ frame) Value { return v })
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return ticked(r, func(c *tctx, f frame) Value { return *r.global(c, slot) })
		}
		return ticked(r, func(c *tctx, f frame) Value { return f[slot] })
	case *ast.IndexExpr:
		arr, idx, pos := cp.arrExpr(ex.X), cp.intExpr(ex.Index), ex.Pos()
		return ticked(r, func(c *tctx, f frame) Value { return *r.elem(c, arr(c, f), idx(c, f), OpRead, pos) })
	case *ast.MakeExpr:
		return cp.makeExpr(ex)
	case *ast.CallExpr:
		switch target := ex.Target.(type) {
		case *ast.FuncDecl:
			return cp.call(ex, target)
		case *sem.Builtin:
			if id := target.ID(); id == sem.BPrint || id == sem.BPrintln {
				return cp.print(ex, id == sem.BPrintln)
			}
			return cp.builtinValue(ex, target)
		}
		return func(*tctx, frame) Value {
			throwf("call of unresolved function %s at %s", ex.Fun, ex.FunPos)
			return Value{}
		}
	}
	return func(*tctx, frame) Value { throwf("unknown expression %T", e); return Value{} }
}

// builtinValue boxes the typed closure of a builtin other than print.
func (cp *compiler) builtinValue(ex *ast.CallExpr, b *sem.Builtin) valFn {
	switch cp.prim(ex) {
	case ast.Int:
		if x := cp.intBuiltin(ex, b); x != nil {
			return func(c *tctx, f frame) Value { return IntV(x(c, f)) }
		}
	case ast.Float:
		if x := cp.floatBuiltin(ex, b); x != nil {
			return func(c *tctx, f frame) Value { return FloatV(x(c, f)) }
		}
	}
	return func(*tctx, frame) Value { throwf("unknown builtin %s at %s", ex.Fun, ex.FunPos); return Value{} }
}

func (cp *compiler) makeExpr(ex *ast.MakeExpr) valFn {
	r, n, z, pos := cp.r, cp.intExpr(ex.Len), zeroValue(ex.Elem), ex.Pos()
	number := r.pol != freeRunning
	return ticked(r, func(c *tctx, f frame) Value {
		size := n(c, f)
		if size < 0 {
			throwf("make with negative length %d at %s", size, pos)
		}
		a := &Array{Elems: make([]Value, size)}
		if number {
			a.Base = r.nextLoc
			r.nextLoc += uint64(size)
		}
		if z != (Value{}) {
			for i := range a.Elems {
				a.Elems[i] = z
			}
		}
		return Value{K: KArray, A: a}
	})
}

func (cp *compiler) call(ex *ast.CallExpr, fn *ast.FuncDecl) valFn {
	r, cf := cp.r, cp.fn(fn)
	args := make([]valFn, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = cp.expr(a)
	}
	return ticked(r, func(c *tctx, f frame) Value {
		nf := make(frame, cf.size)
		for i, a := range args {
			nf[i] = a(c, f)
		}
		return r.invoke(c, cf, nf)
	})
}

// print evaluates every argument, then yields OpPrint, then appends to
// the shared output (formatting after the yield, as arrays print their
// elements' values at that point).
func (cp *compiler) print(ex *ast.CallExpr, newline bool) valFn {
	r := cp.r
	args := make([]valFn, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = cp.expr(a)
	}
	return ticked(r, func(c *tctx, f frame) Value {
		vals := make([]Value, len(args))
		for i, a := range args {
			vals[i] = a(c, f)
		}
		r.yield(c, OpPrint, 0)
		r.outMu.Lock()
		for i, v := range vals {
			if i > 0 {
				r.out.WriteByte(' ')
			}
			r.out.WriteString(v.String())
		}
		if newline {
			r.out.WriteByte('\n')
		}
		r.outMu.Unlock()
		return VoidV()
	})
}

// arrExpr compiles an array-typed expression to its *Array.
func (cp *compiler) arrExpr(e ast.Expr) arrFn {
	r := cp.r
	switch ex := e.(type) {
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return ticked(r, func(c *tctx, f frame) *Array { return r.global(c, slot).A })
		}
		return ticked(r, func(c *tctx, f frame) *Array { return f[slot].A })
	case *ast.IndexExpr:
		arr, idx, pos := cp.arrExpr(ex.X), cp.intExpr(ex.Index), ex.Pos()
		return ticked(r, func(c *tctx, f frame) *Array { return r.elem(c, arr(c, f), idx(c, f), OpRead, pos).A })
	}
	x := cp.value(e)
	return func(c *tctx, f frame) *Array { return x(c, f).A }
}

func (cp *compiler) intExpr(e ast.Expr) intFn {
	r := cp.r
	switch ex := e.(type) {
	case *ast.IntLit:
		v := ex.Value
		return ticked(r, func(c *tctx, _ frame) int64 { return v })
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return ticked(r, func(c *tctx, f frame) int64 { return r.global(c, slot).I })
		}
		return ticked(r, func(c *tctx, f frame) int64 { return f[slot].I })
	case *ast.UnaryExpr:
		x := cp.intExpr(ex.X)
		return ticked(r, func(c *tctx, f frame) int64 { return -x(c, f) })
	case *ast.BinaryExpr:
		return cp.intBinary(ex)
	case *ast.IndexExpr:
		arr, idx, pos := cp.arrExpr(ex.X), cp.intExpr(ex.Index), ex.Pos()
		return ticked(r, func(c *tctx, f frame) int64 { return r.elem(c, arr(c, f), idx(c, f), OpRead, pos).I })
	case *ast.CallExpr:
		if b, ok := ex.Target.(*sem.Builtin); ok {
			if x := cp.intBuiltin(ex, b); x != nil {
				return x
			}
		}
	}
	x := cp.value(e)
	return func(c *tctx, f frame) int64 { return x(c, f).I }
}

func (cp *compiler) intBuiltin(ex *ast.CallExpr, b *sem.Builtin) intFn {
	r := cp.r
	switch b.ID() {
	case sem.BLen:
		arr, pos := cp.arrExpr(ex.Args[0]), ex.FunPos
		return ticked(r, func(c *tctx, f frame) int64 {
			a := arr(c, f)
			if a == nil {
				throwf("len of nil array at %s", pos)
			}
			return int64(len(a.Elems))
		})
	case sem.BIntConv:
		if cp.prim(ex.Args[0]) == ast.Float {
			x := cp.floatExpr(ex.Args[0])
			return ticked(r, func(c *tctx, f frame) int64 { return int64(x(c, f)) })
		}
		x := cp.intExpr(ex.Args[0])
		return ticked(r, func(c *tctx, f frame) int64 { return x(c, f) })
	case sem.BAbs:
		x := cp.intExpr(ex.Args[0])
		return ticked(r, func(c *tctx, f frame) int64 {
			if v := x(c, f); v >= 0 {
				return v
			} else {
				return -v
			}
		})
	}
	return nil
}

// intBinary compiles an int-valued binary operator.
func (cp *compiler) intBinary(ex *ast.BinaryExpr) intFn {
	r, x, y := cp.r, cp.intExpr(ex.X), cp.intExpr(ex.Y)
	if fn := arith(r, ex.Op, x, y); fn != nil {
		return fn
	}
	op := intArith(ex.Op, ex.OpPos)
	return ticked(r, func(c *tctx, f frame) int64 {
		a := x(c, f)
		return op(a, y(c, f))
	})
}

// intArith returns an int operator as a function: the operators of
// compound assignments, and those binary operators that check their
// right operand. pos locates the operator in the runtime-error text
// (none when it is not valid).
func intArith(op token.Kind, pos token.Pos) func(a, b int64) int64 {
	switch op {
	case token.ADD:
		return func(a, b int64) int64 { return a + b }
	case token.SUB:
		return func(a, b int64) int64 { return a - b }
	case token.MUL:
		return func(a, b int64) int64 { return a * b }
	case token.QUO:
		return func(a, b int64) int64 {
			if b == 0 {
				throwf("integer division by zero%s", at(pos))
			}
			return a / b
		}
	case token.REM:
		return func(a, b int64) int64 {
			if b == 0 {
				throwf("integer modulo by zero%s", at(pos))
			}
			return a % b
		}
	case token.AND:
		return func(a, b int64) int64 { return a & b }
	case token.OR:
		return func(a, b int64) int64 { return a | b }
	case token.XOR:
		return func(a, b int64) int64 { return a ^ b }
	case token.SHL:
		return func(a, b int64) int64 { return a << shiftCount(b, pos) }
	case token.SHR:
		return func(a, b int64) int64 { return a >> shiftCount(b, pos) }
	}
	return func(int64, int64) int64 { throwf("invalid operands for %s%s", op, at(pos)); return 0 }
}

// shiftCount rejects a shift count outside [0, 63].
func shiftCount(n int64, pos token.Pos) uint {
	if n < 0 || n > 63 {
		throwf("shift count %d out of range%s", n, at(pos))
	}
	return uint(n)
}

// at renders a valid operator position for a runtime-error text.
func at(pos token.Pos) string {
	if !pos.IsValid() {
		return ""
	}
	return " at " + pos.String()
}

func (cp *compiler) floatExpr(e ast.Expr) floatFn {
	r := cp.r
	switch ex := e.(type) {
	case *ast.FloatLit:
		v := ex.Value
		return ticked(r, func(c *tctx, _ frame) float64 { return v })
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return ticked(r, func(c *tctx, f frame) float64 { return r.global(c, slot).F })
		}
		return ticked(r, func(c *tctx, f frame) float64 { return f[slot].F })
	case *ast.UnaryExpr:
		x := cp.floatExpr(ex.X)
		return ticked(r, func(c *tctx, f frame) float64 { return -x(c, f) })
	case *ast.BinaryExpr:
		x, y := cp.floatExpr(ex.X), cp.floatExpr(ex.Y)
		if ex.Op == token.QUO {
			return ticked(r, func(c *tctx, f frame) float64 { return x(c, f) / y(c, f) })
		}
		if fn := arith(r, ex.Op, x, y); fn != nil {
			return fn
		}
	case *ast.IndexExpr:
		arr, idx, pos := cp.arrExpr(ex.X), cp.intExpr(ex.Index), ex.Pos()
		return ticked(r, func(c *tctx, f frame) float64 { return r.elem(c, arr(c, f), idx(c, f), OpRead, pos).F })
	case *ast.CallExpr:
		if b, ok := ex.Target.(*sem.Builtin); ok {
			if fn := cp.floatBuiltin(ex, b); fn != nil {
				return fn
			}
		}
	}
	x := cp.value(e)
	return func(c *tctx, f frame) float64 { return x(c, f).F }
}

func (cp *compiler) floatBuiltin(ex *ast.CallExpr, b *sem.Builtin) floatFn {
	r := cp.r
	var math1 func(float64) float64
	switch b.ID() {
	case sem.BFloatConv:
		if cp.prim(ex.Args[0]) == ast.Int {
			x := cp.intExpr(ex.Args[0])
			return ticked(r, func(c *tctx, f frame) float64 { return float64(x(c, f)) })
		}
		x := cp.floatExpr(ex.Args[0])
		return ticked(r, func(c *tctx, f frame) float64 { return x(c, f) })
	case sem.BPow:
		x, y := cp.floatExpr(ex.Args[0]), cp.floatExpr(ex.Args[1])
		return ticked(r, func(c *tctx, f frame) float64 {
			a := x(c, f)
			return math.Pow(a, y(c, f))
		})
	case sem.BSqrt:
		math1 = math.Sqrt
	case sem.BSin:
		math1 = math.Sin
	case sem.BCos:
		math1 = math.Cos
	case sem.BExp:
		math1 = math.Exp
	case sem.BLog:
		math1 = math.Log
	case sem.BFloor:
		math1 = math.Floor
	case sem.BAbs:
		math1 = math.Abs
	default:
		return nil
	}
	x := cp.floatExpr(ex.Args[0])
	return ticked(r, func(c *tctx, f frame) float64 { return math1(x(c, f)) })
}

// floatArith returns a float compound-assignment operator.
func floatArith(op token.Kind) func(a, b float64) float64 {
	switch op {
	case token.ADD:
		return func(a, b float64) float64 { return a + b }
	case token.SUB:
		return func(a, b float64) float64 { return a - b }
	case token.MUL:
		return func(a, b float64) float64 { return a * b }
	}
	return func(a, b float64) float64 { return a / b }
}

func (cp *compiler) boolExpr(e ast.Expr) boolFn {
	r := cp.r
	switch ex := e.(type) {
	case *ast.BoolLit:
		v := ex.Value
		return ticked(r, func(c *tctx, _ frame) bool { return v })
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return ticked(r, func(c *tctx, f frame) bool { return r.global(c, slot).I != 0 })
		}
		return ticked(r, func(c *tctx, f frame) bool { return f[slot].I != 0 })
	case *ast.UnaryExpr:
		x := cp.boolExpr(ex.X)
		return ticked(r, func(c *tctx, f frame) bool { return !x(c, f) })
	case *ast.BinaryExpr:
		if fn := cp.boolBinary(ex); fn != nil {
			return fn
		}
	case *ast.IndexExpr:
		arr, idx, pos := cp.arrExpr(ex.X), cp.intExpr(ex.Index), ex.Pos()
		return ticked(r, func(c *tctx, f frame) bool { return r.elem(c, arr(c, f), idx(c, f), OpRead, pos).I != 0 })
	}
	x := cp.value(e)
	return func(c *tctx, f frame) bool { return x(c, f).I != 0 }
}

// boolBinary compiles the short-circuit operators and the comparisons
// of int, float and bool operands.
func (cp *compiler) boolBinary(ex *ast.BinaryExpr) boolFn {
	r := cp.r
	switch ex.Op {
	case token.LAND:
		x, y := cp.boolExpr(ex.X), cp.boolExpr(ex.Y)
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) && y(c, f) })
	case token.LOR:
		x, y := cp.boolExpr(ex.X), cp.boolExpr(ex.Y)
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) || y(c, f) })
	}
	switch cp.prim(ex.X) {
	case ast.Int:
		return compare(r, ex.Op, cp.intExpr(ex.X), cp.intExpr(ex.Y))
	case ast.Float:
		return compare(r, ex.Op, cp.floatExpr(ex.X), cp.floatExpr(ex.Y))
	case ast.Bool:
		x, y := cp.boolExpr(ex.X), cp.boolExpr(ex.Y)
		switch ex.Op {
		case token.EQL:
			return ticked(r, func(c *tctx, f frame) bool { return x(c, f) == y(c, f) })
		case token.NEQ:
			return ticked(r, func(c *tctx, f frame) bool { return x(c, f) != y(c, f) })
		}
	}
	return nil
}

// number is the operand type of the typed arithmetic and comparison
// closures.
type number interface{ int64 | float64 }

// arith compiles x + y, x - y and x * y; nil for other operators.
func arith[T number](r *runner, op token.Kind, x, y func(*tctx, frame) T) func(*tctx, frame) T {
	switch op {
	case token.ADD:
		return ticked(r, func(c *tctx, f frame) T { return x(c, f) + y(c, f) })
	case token.SUB:
		return ticked(r, func(c *tctx, f frame) T { return x(c, f) - y(c, f) })
	case token.MUL:
		return ticked(r, func(c *tctx, f frame) T { return x(c, f) * y(c, f) })
	}
	return nil
}

// compare compiles an ordered comparison; nil for other operators.
func compare[T number](r *runner, op token.Kind, x, y func(*tctx, frame) T) boolFn {
	switch op {
	case token.LSS:
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) < y(c, f) })
	case token.LEQ:
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) <= y(c, f) })
	case token.GTR:
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) > y(c, f) })
	case token.GEQ:
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) >= y(c, f) })
	case token.EQL:
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) == y(c, f) })
	case token.NEQ:
		return ticked(r, func(c *tctx, f frame) bool { return x(c, f) != y(c, f) })
	}
	return nil
}

// ticked wraps the closure of one expression node: in a sequential run
// the node ticks its work unit when it starts, before its operands.
// Parallel runs leave the closure as is, since no analysis reads their
// work.
func ticked[T any](r *runner, fn func(*tctx, frame) T) func(*tctx, frame) T {
	if !r.sequential() {
		return fn
	}
	return func(c *tctx, f frame) T { r.tick(); return fn(c, f) }
}
