package parinterp

import (
	"fmt"
	"math"

	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/taskpar"
)

// The compiler turns the checked AST into Go closures once per Run. A
// closure is bound to its run (it captures *par), so both modes share
// one compiler and the pool executor's workers share the closures,
// which hold no mutable state of their own.
//
// Expressions whose static type (sem.Info.ExprType) is int, float or
// bool compile to closures returning int64, float64 or bool, and an
// indexed or measured array to a closure returning *interp.Array;
// other values (strings, arrays as values, void calls) come from
// interp.Value closures. A
// typed closure trusts the checker: a local's slot, an array element or
// a call result of static type int holds an int Value. The one program
// the checker admits that breaks this is a non-void function that falls
// off its end; its void result reads as the zero value in a typed
// operand.
//
// Every closure keeps this observable order, because the controlled
// mode's yield points (their order, locations and positions) are the
// schedule's input; TestScheduleOutcomesGolden in internal/adversary
// pins it:
//
//   - a statement sets c.pos when it starts, and a loop resets it at
//     each back-edge; a for statement's init leaves its own position in
//     place for the first condition;
//   - operands evaluate left to right; an assignment evaluates its
//     right-hand side before the array and index of an indexed target;
//   - a compound assignment to shared memory yields OpRead, computes,
//     yields OpWrite, and only then stores;
//   - print/println evaluate every argument before the OpPrint yield;
//   - the meter ticks at each call (after its arguments), each loop
//     iteration and each async;
//   - a closure performs at most one float operation, so Go cannot
//     contract two into one fused multiply-add that the sequential
//     interpreter does not perform.

// frame holds one activation's parameters and locals, by sem slot.
type frame []interp.Value

// Compiled code. A stmtFn reports whether a return statement executed;
// the returned value is in c.ret.
type (
	valFn   func(c *tctx, f frame) interp.Value
	intFn   func(c *tctx, f frame) int64
	floatFn func(c *tctx, f frame) float64
	boolFn  func(c *tctx, f frame) bool
	arrFn   func(c *tctx, f frame) *interp.Array
	stmtFn  func(c *tctx, f frame) bool
)

// cfunc is a compiled function. body is set after the entry is
// registered, so recursive calls resolve to it.
type cfunc struct {
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
	p     *par
	info  *sem.Info
	funcs map[*ast.FuncDecl]*cfunc
}

// compile translates the program for this run. Functions are compiled
// on first reference, so code main cannot reach is never compiled.
func (p *par) compile() *program {
	cp := &compiler{p: p, info: p.info, funcs: map[*ast.FuncDecl]*cfunc{}}
	prog := &program{}
	for _, g := range p.info.Prog.Globals {
		prog.globals = append(prog.globals, cp.global(g))
	}
	prog.main = cp.fn(p.info.Prog.Func("main"))
	return prog
}

func (cp *compiler) fn(fn *ast.FuncDecl) *cfunc {
	if cf, ok := cp.funcs[fn]; ok {
		return cf
	}
	cf := &cfunc{size: cp.info.FrameSize[fn]}
	cp.funcs[fn] = cf
	cf.body = cp.block(fn.Body)
	return cf
}

// invoke runs a compiled function on a frame whose parameters are set.
func (p *par) invoke(c *tctx, cf *cfunc, f frame) interp.Value {
	p.tick()
	if cf.body(c, f) {
		return c.ret
	}
	return interp.VoidV()
}

// global initializes one global without a yield: initialization runs
// on the root task before any other task exists.
func (cp *compiler) global(g *ast.VarDeclStmt) func(c *tctx) {
	p, slot, pos := cp.p, g.Sym.(*sem.Symbol).Slot, g.Pos()
	if g.Init == nil {
		z := zeroValue(g.Type)
		return func(c *tctx) { c.pos = pos; p.globals[slot] = z }
	}
	init := cp.expr(g.Init)
	return func(c *tctx) { c.pos = pos; p.globals[slot] = init(c, nil) }
}

func runtimeError(msg string) *interp.RuntimeError { return &interp.RuntimeError{Msg: msg} }

// ----------------------------------------------------------------------
// Statements

func (cp *compiler) block(b *ast.Block) stmtFn {
	stmts := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = cp.stmt(s)
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

func (cp *compiler) stmt(s ast.Stmt) stmtFn {
	p, pos := cp.p, s.Pos()
	switch st := s.(type) {
	case *ast.VarDeclStmt:
		slot := st.Sym.(*sem.Symbol).Slot
		if st.Init == nil {
			z := zeroValue(st.Type)
			return func(c *tctx, f frame) bool { c.pos = pos; f[slot] = z; return false }
		}
		return cp.setLocal(slot, st.Init, pos)
	case *ast.AssignStmt:
		return cp.assign(st)
	case *ast.ExprStmt:
		x := cp.value(st.X)
		return func(c *tctx, f frame) bool { c.pos = pos; x(c, f); return false }
	case *ast.ReturnStmt:
		if st.Value == nil {
			return func(c *tctx, f frame) bool { c.pos = pos; c.ret = interp.Value{}; return true }
		}
		v := cp.expr(st.Value)
		return func(c *tctx, f frame) bool { c.pos = pos; c.ret = v(c, f); return true }
	case *ast.IfStmt:
		cond, then := cp.boolExpr(st.Cond), cp.block(st.Then)
		if st.Else == nil {
			return func(c *tctx, f frame) bool {
				c.pos = pos
				return cond(c, f) && then(c, f)
			}
		}
		els := cp.block(st.Else)
		return func(c *tctx, f frame) bool {
			c.pos = pos
			if cond(c, f) {
				return then(c, f)
			}
			return els(c, f)
		}
	case *ast.WhileStmt:
		cond, body := cp.boolExpr(st.Cond), cp.block(st.Body)
		return func(c *tctx, f frame) bool {
			c.pos = pos
			for cond(c, f) {
				p.tick()
				if body(c, f) {
					return true
				}
				c.pos = pos
			}
			return false
		}
	case *ast.ForStmt:
		return cp.forStmt(st)
	case *ast.AsyncStmt:
		return cp.async(st)
	case *ast.FinishStmt:
		return cp.finish(st)
	case *ast.IsolatedStmt:
		body, cls := cp.block(st.Body), st.LockClass
		if p.ctl != nil {
			// The token plus yield suppression make the body atomic.
			return func(c *tctx, f frame) bool {
				c.pos = pos
				c.isoDepth++
				r := body(c, f)
				c.isoDepth--
				return r
			}
		}
		return func(c *tctx, f frame) bool { c.pos = pos; return p.isolated(c, f, cls, body) }
	case *ast.BlockStmt:
		body := cp.block(st.Body)
		return func(c *tctx, f frame) bool { c.pos = pos; return body(c, f) }
	}
	return func(c *tctx, f frame) bool { panic(runtimeError("unknown statement")) }
}

func (cp *compiler) forStmt(st *ast.ForStmt) stmtFn {
	p, pos := cp.p, st.Pos()
	init, post := func(*tctx, frame) bool { return false }, func(*tctx, frame) bool { return false }
	if st.Init != nil {
		init = cp.stmt(st.Init)
	}
	if st.Post != nil {
		post = cp.stmt(st.Post)
	}
	cond := func(*tctx, frame) bool { return true }
	if st.Cond != nil {
		cond = cp.boolExpr(st.Cond)
	}
	body := cp.block(st.Body)
	return func(c *tctx, f frame) bool {
		c.pos = pos
		if init(c, f) {
			return true
		}
		for cond(c, f) {
			p.tick()
			if body(c, f) || post(c, f) {
				return true
			}
			c.pos = pos
		}
		return false
	}
}

func (cp *compiler) async(st *ast.AsyncStmt) stmtFn {
	p, pos, body := cp.p, st.Pos(), cp.block(st.Body)
	// spawn snapshots the parent frame by value (final-variable capture).
	spawn := func(c *tctx, f frame) frame {
		if c.isoDepth > 0 {
			panic(runtimeError("async not allowed inside isolated"))
		}
		p.tick()
		child := make(frame, len(f))
		copy(child, f)
		return child
	}
	if p.ctl != nil {
		return func(c *tctx, f frame) bool {
			c.pos = pos
			child := spawn(c, f)
			p.spawnTask(p.ctl.Register(c.id), func(cc *tctx) { body(cc, child) })
			p.yield(c, OpSpawn, 0)
			return false
		}
	}
	return func(c *tctx, f frame) bool {
		c.pos = pos
		child := spawn(c, f)
		c.tp.Async(func(cc *taskpar.Ctx) { body(&tctx{tp: cc}, child) })
		return false
	}
}

func (cp *compiler) finish(st *ast.FinishStmt) stmtFn {
	p, pos, body := cp.p, st.Pos(), cp.block(st.Body)
	if p.ctl != nil {
		return func(c *tctx, f frame) bool {
			c.pos = pos
			if c.isoDepth > 0 {
				panic(runtimeError("finish not allowed inside isolated"))
			}
			scope := p.ctl.FinishEnter(c.id)
			r := body(c, f)
			p.ctl.FinishWait(c.id, scope)
			return r
		}
	}
	return func(c *tctx, f frame) bool {
		c.pos = pos
		if c.isoDepth > 0 {
			panic(runtimeError("finish not allowed inside isolated"))
		}
		var r bool
		c.tp.Finish(func(tp *taskpar.Ctx) {
			inner := &tctx{tp: tp}
			if r = body(inner, f); r {
				c.ret = inner.ret
			}
		})
		return r
	}
}

// setLocal compiles "slot = e" for a local declaration or assignment.
func (cp *compiler) setLocal(slot int, e ast.Expr, pos token.Pos) stmtFn {
	if !rawForm(e) {
		switch cp.prim(e) {
		case ast.Int:
			x := cp.intExpr(e)
			return func(c *tctx, f frame) bool { c.pos = pos; f[slot] = interp.IntV(x(c, f)); return false }
		case ast.Float:
			x := cp.floatExpr(e)
			return func(c *tctx, f frame) bool { c.pos = pos; f[slot] = interp.FloatV(x(c, f)); return false }
		case ast.Bool:
			x := cp.boolExpr(e)
			return func(c *tctx, f frame) bool { c.pos = pos; f[slot] = interp.BoolV(x(c, f)); return false }
		}
	}
	x := cp.expr(e)
	return func(c *tctx, f frame) bool { c.pos = pos; f[slot] = x(c, f); return false }
}

func (cp *compiler) assign(st *ast.AssignStmt) stmtFn {
	p, pos := cp.p, st.Pos()
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		sym := lhs.Sym.(*sem.Symbol)
		slot := sym.Slot
		if st.Op == token.ASSIGN {
			if sym.Kind != sem.GlobalVar {
				return cp.setLocal(slot, st.RHS, pos)
			}
			x, loc := cp.expr(st.RHS), 1+uint64(slot)
			return func(c *tctx, f frame) bool {
				c.pos = pos
				v := x(c, f)
				p.yield(c, OpWrite, loc)
				p.globals[slot] = v
				return false
			}
		}
		if sym.Kind != sem.GlobalVar {
			return cp.compound(st, func(_ *tctx, f frame) (*interp.Value, uint64) { return &f[slot], 0 })
		}
		return cp.compound(st, func(c *tctx, f frame) (*interp.Value, uint64) {
			return p.global(c, slot), 1 + uint64(slot)
		})
	case *ast.IndexExpr:
		arr, idx := cp.arrExpr(lhs.X), cp.intExpr(lhs.Index)
		if st.Op != token.ASSIGN {
			return cp.compound(st, func(c *tctx, f frame) (*interp.Value, uint64) {
				a, i := arr(c, f), idx(c, f)
				return p.elem(c, a, i, OpRead), a.Base + uint64(i)
			})
		}
		// The right-hand side evaluates before the array and the index.
		store := func(c *tctx, f frame) *interp.Value {
			a, i := arr(c, f), idx(c, f)
			checkIndex(a, i)
			p.yield(c, OpWrite, a.Base+uint64(i))
			return &a.Elems[i]
		}
		if !rawForm(st.RHS) {
			switch cp.prim(st.RHS) {
			case ast.Int:
				x := cp.intExpr(st.RHS)
				return func(c *tctx, f frame) bool { c.pos = pos; v := x(c, f); *store(c, f) = interp.IntV(v); return false }
			case ast.Float:
				x := cp.floatExpr(st.RHS)
				return func(c *tctx, f frame) bool { c.pos = pos; v := x(c, f); *store(c, f) = interp.FloatV(v); return false }
			}
		}
		x := cp.expr(st.RHS)
		return func(c *tctx, f frame) bool { c.pos = pos; v := x(c, f); *store(c, f) = v; return false }
	}
	return func(c *tctx, f frame) bool { panic(runtimeError("invalid assignment target")) }
}

// cell locates a compound assignment's target after its right-hand
// side: it yields the read of a shared cell and returns the cell with
// the location its write yields, or 0 for a local (in controlled mode
// no shared location is 0).
type cell func(c *tctx, f frame) (*interp.Value, uint64)

// compound compiles "lhs op= rhs": the right-hand side, then the
// target's read yield, the operator, the write yield, and the store.
func (cp *compiler) compound(st *ast.AssignStmt, target cell) stmtFn {
	p, pos := cp.p, st.Pos()
	if cp.prim(st.LHS) == ast.Float {
		x, op := cp.floatExpr(st.RHS), floatArith(compoundOp(st.Op))
		return func(c *tctx, f frame) bool {
			c.pos = pos
			y := x(c, f)
			v, loc := target(c, f)
			nv := op(v.F, y)
			if loc != 0 {
				p.yield(c, OpWrite, loc)
			}
			*v = interp.FloatV(nv)
			return false
		}
	}
	x, op := cp.intExpr(st.RHS), intArith(compoundOp(st.Op), token.Pos{})
	return func(c *tctx, f frame) bool {
		c.pos = pos
		y := x(c, f)
		v, loc := target(c, f)
		nv := op(v.I, y)
		if loc != 0 {
			p.yield(c, OpWrite, loc)
		}
		*v = interp.IntV(nv)
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

// isolated runs a free-running isolated body under its lock class's
// mutual exclusion (outermost level only — the locks are not
// re-entrant, but a nested isolated is already exclusive under the
// outermost one's class). Class 0 write-locks the global isolated lock;
// class c > 0 read-locks it (excluding class 0 but not other classes)
// and locks its own class mutex.
func (p *par) isolated(c *tctx, f frame, cls int, body stmtFn) bool {
	if c.isoDepth == 0 {
		if cls > 0 && cls <= len(p.classMu) {
			p.isoMu.RLock()
			defer p.isoMu.RUnlock()
			p.classMu[cls-1].Lock()
			defer p.classMu[cls-1].Unlock()
		} else {
			p.isoMu.Lock()
			defer p.isoMu.Unlock()
		}
	}
	c.isoDepth++
	defer func() { c.isoDepth-- }()
	return body(c, f)
}

// ----------------------------------------------------------------------
// Shared memory

func checkIndex(a *interp.Array, i int64) {
	if a == nil || i < 0 || i >= int64(len(a.Elems)) {
		panic(runtimeError("index out of range in parallel run"))
	}
}

// elem bounds-checks a[i], yields op on it, and returns the cell.
func (p *par) elem(c *tctx, a *interp.Array, i int64, op PointOp) *interp.Value {
	checkIndex(a, i)
	p.yield(c, op, a.Base+uint64(i))
	return &a.Elems[i]
}

// global yields a read of a global and returns its cell.
func (p *par) global(c *tctx, slot int) *interp.Value {
	p.yield(c, OpRead, 1+uint64(slot))
	return &p.globals[slot]
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
			return func(c *tctx, f frame) interp.Value { return interp.IntV(x(c, f)) }
		case ast.Float:
			x := cp.floatExpr(e)
			return func(c *tctx, f frame) interp.Value { return interp.FloatV(x(c, f)) }
		case ast.Bool:
			x := cp.boolExpr(e)
			return func(c *tctx, f frame) interp.Value { return interp.BoolV(x(c, f)) }
		}
	}
	return cp.value(e)
}

// value compiles the expression forms that produce a Value directly:
// strings, variables, elements, make, calls and print. Literals and
// operators have typed closures (expr).
func (cp *compiler) value(e ast.Expr) valFn {
	p := cp.p
	switch ex := e.(type) {
	case *ast.StringLit:
		v := interp.StringV(ex.Value)
		return func(*tctx, frame) interp.Value { return v }
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return func(c *tctx, f frame) interp.Value { return *p.global(c, slot) }
		}
		return func(_ *tctx, f frame) interp.Value { return f[slot] }
	case *ast.IndexExpr:
		arr, idx := cp.arrExpr(ex.X), cp.intExpr(ex.Index)
		return func(c *tctx, f frame) interp.Value { return *p.elem(c, arr(c, f), idx(c, f), OpRead) }
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
		msg := "unresolved call " + ex.Fun
		return func(*tctx, frame) interp.Value { panic(runtimeError(msg)) }
	}
	return func(*tctx, frame) interp.Value { panic(runtimeError("unknown expression")) }
}

// builtinValue boxes the typed closure of a builtin other than print.
func (cp *compiler) builtinValue(ex *ast.CallExpr, b *sem.Builtin) valFn {
	switch cp.prim(ex) {
	case ast.Int:
		if x := cp.intBuiltin(ex, b); x != nil {
			return func(c *tctx, f frame) interp.Value { return interp.IntV(x(c, f)) }
		}
	case ast.Float:
		if x := cp.floatBuiltin(ex, b); x != nil {
			return func(c *tctx, f frame) interp.Value { return interp.FloatV(x(c, f)) }
		}
	}
	msg := "unknown builtin " + ex.Fun
	return func(*tctx, frame) interp.Value { panic(runtimeError(msg)) }
}

func (cp *compiler) makeExpr(ex *ast.MakeExpr) valFn {
	p, n, z := cp.p, cp.intExpr(ex.Len), zeroValue(ex.Elem)
	return func(c *tctx, f frame) interp.Value {
		size := n(c, f)
		if size < 0 {
			panic(runtimeError("make with negative length"))
		}
		a := &interp.Array{Elems: make([]interp.Value, size)}
		if p.ctl != nil {
			// Number array locations exactly like the sequential
			// detector so race-directed schedules can target them.
			a.Base = p.nextLoc
			p.nextLoc += uint64(size)
		}
		if z != (interp.Value{}) {
			for i := range a.Elems {
				a.Elems[i] = z
			}
		}
		return interp.Value{K: interp.KArray, A: a}
	}
}

func (cp *compiler) call(ex *ast.CallExpr, fn *ast.FuncDecl) valFn {
	p, cf := cp.p, cp.fn(fn)
	args := make([]valFn, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = cp.expr(a)
	}
	return func(c *tctx, f frame) interp.Value {
		nf := make(frame, cf.size)
		for i, a := range args {
			nf[i] = a(c, f)
		}
		return p.invoke(c, cf, nf)
	}
}

// print evaluates every argument, then yields OpPrint, then appends to
// the shared output (formatting after the yield, as arrays print their
// elements' values at that point).
func (cp *compiler) print(ex *ast.CallExpr, newline bool) valFn {
	p := cp.p
	args := make([]valFn, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = cp.expr(a)
	}
	return func(c *tctx, f frame) interp.Value {
		vals := make([]interp.Value, len(args))
		for i, a := range args {
			vals[i] = a(c, f)
		}
		p.yield(c, OpPrint, 0)
		p.outMu.Lock()
		for i, v := range vals {
			if i > 0 {
				p.out.WriteByte(' ')
			}
			p.out.WriteString(v.String())
		}
		if newline {
			p.out.WriteByte('\n')
		}
		p.outMu.Unlock()
		return interp.VoidV()
	}
}

// arrExpr compiles an array-typed expression to its *interp.Array.
func (cp *compiler) arrExpr(e ast.Expr) arrFn {
	p := cp.p
	switch ex := e.(type) {
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return func(c *tctx, f frame) *interp.Array { return p.global(c, slot).A }
		}
		return func(_ *tctx, f frame) *interp.Array { return f[slot].A }
	case *ast.IndexExpr:
		arr, idx := cp.arrExpr(ex.X), cp.intExpr(ex.Index)
		return func(c *tctx, f frame) *interp.Array { return p.elem(c, arr(c, f), idx(c, f), OpRead).A }
	}
	x := cp.value(e)
	return func(c *tctx, f frame) *interp.Array { return x(c, f).A }
}

func (cp *compiler) intExpr(e ast.Expr) intFn {
	p := cp.p
	switch ex := e.(type) {
	case *ast.IntLit:
		v := ex.Value
		return func(*tctx, frame) int64 { return v }
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return func(c *tctx, f frame) int64 { return p.global(c, slot).I }
		}
		return func(_ *tctx, f frame) int64 { return f[slot].I }
	case *ast.UnaryExpr:
		x := cp.intExpr(ex.X)
		return func(c *tctx, f frame) int64 { return -x(c, f) }
	case *ast.BinaryExpr:
		return cp.intBinary(ex)
	case *ast.IndexExpr:
		arr, idx := cp.arrExpr(ex.X), cp.intExpr(ex.Index)
		return func(c *tctx, f frame) int64 { return p.elem(c, arr(c, f), idx(c, f), OpRead).I }
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
	switch b.ID() {
	case sem.BLen:
		arr := cp.arrExpr(ex.Args[0])
		return func(c *tctx, f frame) int64 {
			a := arr(c, f)
			if a == nil {
				panic(runtimeError("len of nil array"))
			}
			return int64(len(a.Elems))
		}
	case sem.BIntConv:
		if cp.prim(ex.Args[0]) == ast.Float {
			x := cp.floatExpr(ex.Args[0])
			return func(c *tctx, f frame) int64 { return int64(x(c, f)) }
		}
		return cp.intExpr(ex.Args[0])
	case sem.BAbs:
		x := cp.intExpr(ex.Args[0])
		return func(c *tctx, f frame) int64 {
			if v := x(c, f); v >= 0 {
				return v
			} else {
				return -v
			}
		}
	}
	return nil
}

// intBinary compiles an int-valued binary operator. Division checks its
// divisor and a shift its count, as the sequential interpreter does.
func (cp *compiler) intBinary(ex *ast.BinaryExpr) intFn {
	x, y := cp.intExpr(ex.X), cp.intExpr(ex.Y)
	if fn := arith(ex.Op, x, y); fn != nil {
		return fn
	}
	op := intArith(ex.Op, ex.OpPos)
	return func(c *tctx, f frame) int64 {
		a := x(c, f)
		return op(a, y(c, f))
	}
}

// intArith returns an int operator as a function: the operators of
// compound assignments, and those binary operators that check their
// right operand. pos is the operator's position for the shift-count
// error.
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
				panic(runtimeError("integer division by zero"))
			}
			return a / b
		}
	case token.REM:
		return func(a, b int64) int64 {
			if b == 0 {
				panic(runtimeError("integer modulo by zero"))
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
	return func(int64, int64) int64 { panic(runtimeError("invalid operands")) }
}

// shiftCount rejects a shift count outside [0, 63] with the sequential
// interpreter's error.
func shiftCount(n int64, pos token.Pos) uint {
	if n < 0 || n > 63 {
		panic(runtimeError(fmt.Sprintf("shift count %d out of range at %s", n, pos)))
	}
	return uint(n)
}

func (cp *compiler) floatExpr(e ast.Expr) floatFn {
	p := cp.p
	switch ex := e.(type) {
	case *ast.FloatLit:
		v := ex.Value
		return func(*tctx, frame) float64 { return v }
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return func(c *tctx, f frame) float64 { return p.global(c, slot).F }
		}
		return func(_ *tctx, f frame) float64 { return f[slot].F }
	case *ast.UnaryExpr:
		x := cp.floatExpr(ex.X)
		return func(c *tctx, f frame) float64 { return -x(c, f) }
	case *ast.BinaryExpr:
		x, y := cp.floatExpr(ex.X), cp.floatExpr(ex.Y)
		if ex.Op == token.QUO {
			return func(c *tctx, f frame) float64 { return x(c, f) / y(c, f) }
		}
		if fn := arith(ex.Op, x, y); fn != nil {
			return fn
		}
	case *ast.IndexExpr:
		arr, idx := cp.arrExpr(ex.X), cp.intExpr(ex.Index)
		return func(c *tctx, f frame) float64 { return p.elem(c, arr(c, f), idx(c, f), OpRead).F }
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
	var math1 func(float64) float64
	switch b.ID() {
	case sem.BFloatConv:
		if cp.prim(ex.Args[0]) == ast.Int {
			x := cp.intExpr(ex.Args[0])
			return func(c *tctx, f frame) float64 { return float64(x(c, f)) }
		}
		return cp.floatExpr(ex.Args[0])
	case sem.BPow:
		x, y := cp.floatExpr(ex.Args[0]), cp.floatExpr(ex.Args[1])
		return func(c *tctx, f frame) float64 {
			a := x(c, f)
			return math.Pow(a, y(c, f))
		}
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
	return func(c *tctx, f frame) float64 { return math1(x(c, f)) }
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
	p := cp.p
	switch ex := e.(type) {
	case *ast.BoolLit:
		v := ex.Value
		return func(*tctx, frame) bool { return v }
	case *ast.Ident:
		sym := ex.Sym.(*sem.Symbol)
		slot := sym.Slot
		if sym.Kind == sem.GlobalVar {
			return func(c *tctx, f frame) bool { return p.global(c, slot).I != 0 }
		}
		return func(_ *tctx, f frame) bool { return f[slot].I != 0 }
	case *ast.UnaryExpr:
		x := cp.boolExpr(ex.X)
		return func(c *tctx, f frame) bool { return !x(c, f) }
	case *ast.BinaryExpr:
		if fn := cp.boolBinary(ex); fn != nil {
			return fn
		}
	case *ast.IndexExpr:
		arr, idx := cp.arrExpr(ex.X), cp.intExpr(ex.Index)
		return func(c *tctx, f frame) bool { return p.elem(c, arr(c, f), idx(c, f), OpRead).I != 0 }
	}
	x := cp.value(e)
	return func(c *tctx, f frame) bool { return x(c, f).I != 0 }
}

// boolBinary compiles the short-circuit operators and the comparisons
// of int, float and bool operands.
func (cp *compiler) boolBinary(ex *ast.BinaryExpr) boolFn {
	switch ex.Op {
	case token.LAND:
		x, y := cp.boolExpr(ex.X), cp.boolExpr(ex.Y)
		return func(c *tctx, f frame) bool { return x(c, f) && y(c, f) }
	case token.LOR:
		x, y := cp.boolExpr(ex.X), cp.boolExpr(ex.Y)
		return func(c *tctx, f frame) bool { return x(c, f) || y(c, f) }
	}
	switch cp.prim(ex.X) {
	case ast.Int:
		return compare(ex.Op, cp.intExpr(ex.X), cp.intExpr(ex.Y))
	case ast.Float:
		return compare(ex.Op, cp.floatExpr(ex.X), cp.floatExpr(ex.Y))
	case ast.Bool:
		x, y := cp.boolExpr(ex.X), cp.boolExpr(ex.Y)
		switch ex.Op {
		case token.EQL:
			return func(c *tctx, f frame) bool { return x(c, f) == y(c, f) }
		case token.NEQ:
			return func(c *tctx, f frame) bool { return x(c, f) != y(c, f) }
		}
	}
	return nil
}

// number is the operand type of the typed arithmetic and comparison
// closures.
type number interface{ int64 | float64 }

// arith compiles x + y, x - y and x * y; nil for other operators.
func arith[T number](op token.Kind, x, y func(*tctx, frame) T) func(*tctx, frame) T {
	switch op {
	case token.ADD:
		return func(c *tctx, f frame) T { return x(c, f) + y(c, f) }
	case token.SUB:
		return func(c *tctx, f frame) T { return x(c, f) - y(c, f) }
	case token.MUL:
		return func(c *tctx, f frame) T { return x(c, f) * y(c, f) }
	}
	return nil
}

// compare compiles an ordered comparison; nil for other operators.
func compare[T number](op token.Kind, x, y func(*tctx, frame) T) boolFn {
	switch op {
	case token.LSS:
		return func(c *tctx, f frame) bool { return x(c, f) < y(c, f) }
	case token.LEQ:
		return func(c *tctx, f frame) bool { return x(c, f) <= y(c, f) }
	case token.GTR:
		return func(c *tctx, f frame) bool { return x(c, f) > y(c, f) }
	case token.GEQ:
		return func(c *tctx, f frame) bool { return x(c, f) >= y(c, f) }
	case token.EQL:
		return func(c *tctx, f frame) bool { return x(c, f) == y(c, f) }
	case token.NEQ:
		return func(c *tctx, f frame) bool { return x(c, f) != y(c, f) }
	}
	return nil
}
