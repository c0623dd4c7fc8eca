// Package sem implements name resolution and static type checking for
// HJ-lite.
//
// The checker annotates the AST in place: each *ast.Ident gets its
// resolved *Symbol, each *ast.CallExpr its target (*ast.FuncDecl or
// *Builtin), and each *ast.VarDeclStmt its declared *Symbol and inferred
// type. Locals and parameters are assigned flat frame slots per function;
// globals get slots in a program-wide array.
//
// Scoping: blocks, if/while/for bodies, and async bodies open scopes.
// The bodies of finish and isolated statements are deliberately
// scope-TRANSPARENT: a finish inserted by the repair tool around a
// statement range must not capture variable declarations used after the
// range.
//
// Transparency makes an Info outlive such edits. Moving existing
// statements into or out of finish and isolated bodies (ast.StripFinishes,
// the repair's rewrite) creates no declaration and no expression, so a
// re-check would compute the same slots, frame sizes, global count and
// expression types, and only rebind every Ident.Sym to a fresh Symbol.
// tdr therefore checks each loaded program once and reuses that Info in
// every later stage.
package sem

import (
	"fmt"
	"strings"

	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/token"
)

// SymbolKind distinguishes globals from function-frame variables.
type SymbolKind int

// Symbol kinds.
const (
	GlobalVar SymbolKind = iota
	LocalVar
	ParamVar
)

// Symbol describes a resolved variable.
type Symbol struct {
	Name string
	Type ast.Type
	Kind SymbolKind
	Slot int // index into the globals array or the function frame
	Pos  token.Pos
}

// Builtin describes a builtin function.
type Builtin struct {
	Name string
	// Check validates argument types and returns the result type (nil for
	// void). It appends errors through the checker.
	check func(c *checker, call *ast.CallExpr, args []ast.Type) ast.Type
}

// Info holds the results of checking a program.
type Info struct {
	Prog *ast.Program
	// GlobalCount is the size of the globals array.
	GlobalCount int
	// FrameSize maps each function to the number of frame slots it needs
	// (params + all locals, no reuse).
	FrameSize map[*ast.FuncDecl]int
	// ExprType records the static type of every expression.
	ExprType map[ast.Expr]ast.Type
	// GlobalSyms lists global symbols in slot order.
	GlobalSyms []*Symbol
}

// Error is a semantic error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates semantic errors.
type ErrorList []*Error

// Error implements the error interface.
func (l ErrorList) Error() string {
	var sb strings.Builder
	for i, e := range l {
		if i == 8 {
			fmt.Fprintf(&sb, "... and %d more errors", len(l)-8)
			break
		}
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(e.Error())
	}
	return sb.String()
}

type scope struct {
	parent *scope
	vars   map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.vars[name]; ok {
			return sym
		}
	}
	return nil
}

type checker struct {
	info     *Info
	errs     ErrorList
	scope    *scope
	curFn    *ast.FuncDecl
	nextSlot int
	funcs    map[string]*ast.FuncDecl

	// isoDepth tracks lexical nesting inside isolated bodies; isoCalls
	// records user-function calls made there, validated after all
	// functions are known (a callee may transitively create tasks).
	isoDepth int
	isoCalls []isoCall
}

// Check resolves and type-checks prog, annotating the AST. It returns the
// collected Info, and a non-nil error (an ErrorList) if the program is
// invalid.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:      prog,
			FrameSize: make(map[*ast.FuncDecl]int),
			ExprType:  make(map[ast.Expr]ast.Type),
		},
		funcs: make(map[string]*ast.FuncDecl),
	}
	c.scope = &scope{vars: make(map[string]*Symbol)}

	for _, fn := range prog.Funcs {
		if prev, dup := c.funcs[fn.Name]; dup {
			c.errorf(fn.FuncPos, "function %s redeclared (previous at %s)", fn.Name, prev.FuncPos)
			continue
		}
		if _, isBuiltin := builtins[fn.Name]; isBuiltin {
			c.errorf(fn.FuncPos, "function %s shadows a builtin", fn.Name)
		}
		c.funcs[fn.Name] = fn
	}

	// Globals, in order; initializers may use earlier globals and call
	// functions (call-before-main evaluation is sequential).
	for _, g := range prog.Globals {
		c.checkVarDecl(g, true)
	}

	for _, fn := range prog.Funcs {
		c.checkFunc(fn)
	}
	c.checkIsolatedCalls()

	if main := prog.Func("main"); main == nil {
		c.errorf(token.Pos{Line: 1, Col: 1}, "program has no main function")
	} else if len(main.Params) != 0 || main.Ret != nil {
		c.errorf(main.FuncPos, "main must take no parameters and return nothing")
	}

	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

// MustCheck checks prog and panics on error; for tests and embedded
// benchmark programs.
func MustCheck(prog *ast.Program) *Info {
	info, err := Check(prog)
	if err != nil {
		panic(err)
	}
	return info
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) push() { c.scope = &scope{parent: c.scope, vars: make(map[string]*Symbol)} }
func (c *checker) pop()  { c.scope = c.scope.parent }

func (c *checker) declare(name string, ty ast.Type, kind SymbolKind, pos token.Pos) *Symbol {
	if prev, ok := c.scope.vars[name]; ok {
		c.errorf(pos, "%s redeclared in this scope (previous at %s)", name, prev.Pos)
	}
	sym := &Symbol{Name: name, Type: ty, Kind: kind, Pos: pos}
	if kind == GlobalVar {
		sym.Slot = c.info.GlobalCount
		c.info.GlobalCount++
		c.info.GlobalSyms = append(c.info.GlobalSyms, sym)
	} else {
		sym.Slot = c.nextSlot
		c.nextSlot++
	}
	c.scope.vars[name] = sym
	return sym
}

func (c *checker) checkFunc(fn *ast.FuncDecl) {
	c.curFn = fn
	c.nextSlot = 0
	c.push()
	for _, prm := range fn.Params {
		if prm.Type == nil {
			c.errorf(prm.Pos, "parameter %s has no type", prm.Name)
			continue
		}
		c.declare(prm.Name, prm.Type, ParamVar, prm.Pos)
	}
	c.checkBlock(fn.Body, true)
	c.pop()
	if fn.Ret != nil && !terminates(fn.Body) {
		c.errorf(fn.FuncPos, "missing return at end of function %s", fn.Name)
	}
	c.info.FrameSize[fn] = c.nextSlot
	c.curFn = nil
}

// terminates reports whether control can never fall off the end of b:
// its last statement is a return, an if/else whose branches both
// terminate, a block, finish or isolated whose body terminates, or a
// loop without exit (HJ-lite has no break): while (true) or a for with
// no condition.
func terminates(b *ast.Block) bool {
	if b == nil || len(b.Stmts) == 0 {
		return false
	}
	switch st := b.Stmts[len(b.Stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.IfStmt:
		return terminates(st.Then) && terminates(st.Else)
	case *ast.BlockStmt:
		return terminates(st.Body)
	case *ast.FinishStmt:
		return terminates(st.Body)
	case *ast.IsolatedStmt:
		return terminates(st.Body)
	case *ast.WhileStmt:
		lit, ok := st.Cond.(*ast.BoolLit)
		return ok && lit.Value
	case *ast.ForStmt:
		return st.Cond == nil
	}
	return false
}

// checkBlock checks the statements of b. If newScope is true the block
// opens a lexical scope (finish bodies pass false).
func (c *checker) checkBlock(b *ast.Block, newScope bool) {
	if b == nil {
		return
	}
	if newScope {
		c.push()
		defer c.pop()
	}
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.VarDeclStmt:
		c.checkVarDecl(st, false)
	case *ast.AssignStmt:
		c.checkAssign(st)
	case *ast.ExprStmt:
		c.checkExpr(st.X)
	case *ast.ReturnStmt:
		c.checkReturn(st)
	case *ast.IfStmt:
		if ty := c.checkExpr(st.Cond); ty != nil && !ast.TypesEqual(ty, ast.BoolType) {
			c.errorf(st.Cond.Pos(), "if condition must be bool, got %s", ty)
		}
		c.checkBlock(st.Then, true)
		c.checkBlock(st.Else, true)
	case *ast.WhileStmt:
		if ty := c.checkExpr(st.Cond); ty != nil && !ast.TypesEqual(ty, ast.BoolType) {
			c.errorf(st.Cond.Pos(), "while condition must be bool, got %s", ty)
		}
		c.checkBlock(st.Body, true)
	case *ast.ForStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			if ty := c.checkExpr(st.Cond); ty != nil && !ast.TypesEqual(ty, ast.BoolType) {
				c.errorf(st.Cond.Pos(), "for condition must be bool, got %s", ty)
			}
		}
		if st.Post != nil {
			c.checkStmt(st.Post)
		}
		c.checkBlock(st.Body, true)
		c.pop()
	case *ast.AsyncStmt:
		if c.isoDepth > 0 {
			c.errorf(st.AsyncPos, "async not allowed inside isolated")
		}
		c.checkBlock(st.Body, true)
	case *ast.FinishStmt:
		if c.isoDepth > 0 {
			c.errorf(st.FinishPos, "finish not allowed inside isolated")
		}
		// Scope-transparent: declarations inside the finish body remain
		// visible after it.
		c.checkBlock(st.Body, false)
	case *ast.IsolatedStmt:
		// Scope-transparent like finish: an isolated inserted by the
		// repair tool around a statement range must not capture variable
		// declarations used after the range.
		c.isoDepth++
		c.checkBlock(st.Body, false)
		c.isoDepth--
	case *ast.BlockStmt:
		c.checkBlock(st.Body, true)
	default:
		c.errorf(s.Pos(), "unknown statement %T", s)
	}
}

func (c *checker) checkVarDecl(st *ast.VarDeclStmt, global bool) {
	var initTy ast.Type
	if st.Init != nil {
		initTy = c.checkExpr(st.Init)
	}
	if st.Type == nil {
		st.Type = initTy
	} else if initTy != nil && !ast.TypesEqual(st.Type, initTy) {
		c.errorf(st.VarPos, "cannot initialize %s (%s) with %s", st.Name, st.Type, initTy)
	}
	if st.Type == nil {
		c.errorf(st.VarPos, "cannot infer type of %s", st.Name)
		st.Type = ast.IntType
	}
	kind := LocalVar
	if global {
		kind = GlobalVar
	}
	st.Sym = c.declare(st.Name, st.Type, kind, st.VarPos)
}

func (c *checker) checkAssign(st *ast.AssignStmt) {
	lt := c.checkExpr(st.LHS)
	rt := c.checkExpr(st.RHS)
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		_ = lhs
	case *ast.IndexExpr:
	default:
		c.errorf(st.LHS.Pos(), "invalid assignment target")
		return
	}
	if lt == nil || rt == nil {
		return
	}
	if !ast.TypesEqual(lt, rt) {
		c.errorf(st.OpPos, "cannot assign %s to %s", rt, lt)
		return
	}
	if st.Op != token.ASSIGN && !isNumeric(lt) {
		c.errorf(st.OpPos, "operator %s requires numeric operands, got %s", st.Op, lt)
	}
}

func (c *checker) checkReturn(st *ast.ReturnStmt) {
	want := c.curFn.Ret
	if st.Value == nil {
		if want != nil {
			c.errorf(st.RetPos, "function %s must return %s", c.curFn.Name, want)
		}
		return
	}
	got := c.checkExpr(st.Value)
	if want == nil {
		c.errorf(st.RetPos, "function %s returns no value", c.curFn.Name)
		return
	}
	if got != nil && !ast.TypesEqual(got, want) {
		c.errorf(st.RetPos, "function %s must return %s, got %s", c.curFn.Name, want, got)
	}
}

func isNumeric(t ast.Type) bool {
	p, ok := t.(*ast.PrimType)
	return ok && (p.Kind == ast.Int || p.Kind == ast.Float)
}

func isInt(t ast.Type) bool {
	p, ok := t.(*ast.PrimType)
	return ok && p.Kind == ast.Int
}

func isComparable(t ast.Type) bool {
	p, ok := t.(*ast.PrimType)
	return ok && p.Kind != ast.String
}

// checkExpr type-checks e and returns its type (nil on error).
func (c *checker) checkExpr(e ast.Expr) ast.Type {
	ty := c.exprType(e)
	if ty != nil {
		c.info.ExprType[e] = ty
	}
	return ty
}

func (c *checker) exprType(e ast.Expr) ast.Type {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ast.IntType
	case *ast.FloatLit:
		return ast.FloatType
	case *ast.BoolLit:
		return ast.BoolType
	case *ast.StringLit:
		return ast.StringType
	case *ast.Ident:
		sym := c.scope.lookup(ex.Name)
		if sym == nil {
			c.errorf(ex.NamePos, "undefined: %s", ex.Name)
			return nil
		}
		ex.Sym = sym
		return sym.Type
	case *ast.UnaryExpr:
		xt := c.checkExpr(ex.X)
		if xt == nil {
			return nil
		}
		switch ex.Op {
		case token.SUB:
			if !isNumeric(xt) {
				c.errorf(ex.OpPos, "operator - requires a numeric operand, got %s", xt)
				return nil
			}
			return xt
		case token.NOT:
			if !ast.TypesEqual(xt, ast.BoolType) {
				c.errorf(ex.OpPos, "operator ! requires bool, got %s", xt)
				return nil
			}
			return ast.BoolType
		}
		c.errorf(ex.OpPos, "unknown unary operator %s", ex.Op)
		return nil
	case *ast.BinaryExpr:
		return c.binaryType(ex)
	case *ast.IndexExpr:
		xt := c.checkExpr(ex.X)
		it := c.checkExpr(ex.Index)
		if it != nil && !isInt(it) {
			c.errorf(ex.Index.Pos(), "array index must be int, got %s", it)
		}
		if xt == nil {
			return nil
		}
		at, ok := xt.(*ast.ArrayType)
		if !ok {
			c.errorf(ex.X.Pos(), "cannot index %s", xt)
			return nil
		}
		return at.Elem
	case *ast.MakeExpr:
		lt := c.checkExpr(ex.Len)
		if lt != nil && !isInt(lt) {
			c.errorf(ex.Len.Pos(), "make length must be int, got %s", lt)
		}
		return &ast.ArrayType{Elem: ex.Elem}
	case *ast.CallExpr:
		return c.callType(ex)
	}
	c.errorf(e.Pos(), "unknown expression %T", e)
	return nil
}

func (c *checker) binaryType(ex *ast.BinaryExpr) ast.Type {
	xt := c.checkExpr(ex.X)
	yt := c.checkExpr(ex.Y)
	if xt == nil || yt == nil {
		return nil
	}
	switch ex.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
		if !ast.TypesEqual(xt, yt) || !isNumeric(xt) {
			c.errorf(ex.OpPos, "operator %s requires matching numeric operands, got %s and %s", ex.Op, xt, yt)
			return nil
		}
		return xt
	case token.REM, token.AND, token.OR, token.XOR, token.SHL, token.SHR:
		if !isInt(xt) || !isInt(yt) {
			c.errorf(ex.OpPos, "operator %s requires int operands, got %s and %s", ex.Op, xt, yt)
			return nil
		}
		return ast.IntType
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		if !ast.TypesEqual(xt, yt) || !isNumeric(xt) {
			c.errorf(ex.OpPos, "operator %s requires matching numeric operands, got %s and %s", ex.Op, xt, yt)
			return nil
		}
		return ast.BoolType
	case token.EQL, token.NEQ:
		if !ast.TypesEqual(xt, yt) || !isComparable(xt) {
			c.errorf(ex.OpPos, "operator %s requires matching comparable operands, got %s and %s", ex.Op, xt, yt)
			return nil
		}
		return ast.BoolType
	case token.LAND, token.LOR:
		if !ast.TypesEqual(xt, ast.BoolType) || !ast.TypesEqual(yt, ast.BoolType) {
			c.errorf(ex.OpPos, "operator %s requires bool operands, got %s and %s", ex.Op, xt, yt)
			return nil
		}
		return ast.BoolType
	}
	c.errorf(ex.OpPos, "unknown binary operator %s", ex.Op)
	return nil
}

func (c *checker) callType(ex *ast.CallExpr) ast.Type {
	args := make([]ast.Type, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = c.checkExpr(a)
	}
	if b, ok := builtins[ex.Fun]; ok {
		ex.Target = b
		return b.check(c, ex, args)
	}
	fn, ok := c.funcs[ex.Fun]
	if !ok {
		c.errorf(ex.FunPos, "undefined function: %s", ex.Fun)
		return nil
	}
	ex.Target = fn
	if c.isoDepth > 0 {
		c.isoCalls = append(c.isoCalls, isoCall{fn: fn, pos: ex.FunPos})
	}
	if len(args) != len(fn.Params) {
		c.errorf(ex.FunPos, "%s expects %d arguments, got %d", ex.Fun, len(fn.Params), len(args))
		return fn.Ret
	}
	for i, at := range args {
		if at != nil && fn.Params[i].Type != nil && !ast.TypesEqual(at, fn.Params[i].Type) {
			c.errorf(ex.Args[i].Pos(), "argument %d of %s must be %s, got %s", i+1, ex.Fun, fn.Params[i].Type, at)
		}
	}
	return fn.Ret
}
