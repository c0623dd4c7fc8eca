package interp

import (
	"math"

	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
)

func (in *interp) eval(f *frame, e ast.Expr) Value {
	in.tick()
	switch ex := e.(type) {
	case *ast.IntLit:
		return IntV(ex.Value)
	case *ast.FloatLit:
		return FloatV(ex.Value)
	case *ast.BoolLit:
		return BoolV(ex.Value)
	case *ast.StringLit:
		return StringV(ex.Value)
	case *ast.Ident:
		return in.loadVar(ex.Sym.(*sem.Symbol), f)
	case *ast.UnaryExpr:
		x := in.eval(f, ex.X)
		switch ex.Op {
		case token.SUB:
			if x.K == KInt {
				return IntV(-x.I)
			}
			return FloatV(-x.F)
		case token.NOT:
			return BoolV(!x.Bool())
		}
	case *ast.BinaryExpr:
		return in.evalBinary(f, ex)
	case *ast.IndexExpr:
		arr, i := in.evalIndexTarget(f, ex)
		in.readLoc(arr.Base + uint64(i))
		return arr.Elems[i]
	case *ast.MakeExpr:
		n := in.eval(f, ex.Len)
		if n.I < 0 {
			throwf("make with negative length %d at %s", n.I, ex.Pos())
		}
		a := &Array{Elems: make([]Value, n.I)}
		z := zeroValue(ex.Elem)
		for i := range a.Elems {
			a.Elems[i] = z
		}
		if in.ev != nil {
			a.Base = in.nextLoc
			in.nextLoc += uint64(n.I)
		}
		return Value{K: KArray, A: a}
	case *ast.CallExpr:
		return in.evalCall(f, ex)
	}
	throwf("unknown expression %T", e)
	return Value{}
}

func (in *interp) evalBinary(f *frame, ex *ast.BinaryExpr) Value {
	// Short-circuit operators.
	switch ex.Op {
	case token.LAND:
		x := in.eval(f, ex.X)
		if !x.Bool() {
			return BoolV(false)
		}
		return BoolV(in.eval(f, ex.Y).Bool())
	case token.LOR:
		x := in.eval(f, ex.X)
		if x.Bool() {
			return BoolV(true)
		}
		return BoolV(in.eval(f, ex.Y).Bool())
	}
	x := in.eval(f, ex.X)
	y := in.eval(f, ex.Y)
	if x.K == KInt && y.K == KInt {
		switch ex.Op {
		case token.ADD:
			return IntV(x.I + y.I)
		case token.SUB:
			return IntV(x.I - y.I)
		case token.MUL:
			return IntV(x.I * y.I)
		case token.QUO:
			if y.I == 0 {
				throwf("integer division by zero at %s", ex.OpPos)
			}
			return IntV(x.I / y.I)
		case token.REM:
			if y.I == 0 {
				throwf("integer modulo by zero at %s", ex.OpPos)
			}
			return IntV(x.I % y.I)
		case token.AND:
			return IntV(x.I & y.I)
		case token.OR:
			return IntV(x.I | y.I)
		case token.XOR:
			return IntV(x.I ^ y.I)
		case token.SHL:
			if y.I < 0 || y.I > 63 {
				throwf("shift count %d out of range at %s", y.I, ex.OpPos)
			}
			return IntV(x.I << uint(y.I))
		case token.SHR:
			if y.I < 0 || y.I > 63 {
				throwf("shift count %d out of range at %s", y.I, ex.OpPos)
			}
			return IntV(x.I >> uint(y.I))
		case token.LSS:
			return BoolV(x.I < y.I)
		case token.LEQ:
			return BoolV(x.I <= y.I)
		case token.GTR:
			return BoolV(x.I > y.I)
		case token.GEQ:
			return BoolV(x.I >= y.I)
		case token.EQL:
			return BoolV(x.I == y.I)
		case token.NEQ:
			return BoolV(x.I != y.I)
		}
	}
	if x.K == KFloat && y.K == KFloat {
		switch ex.Op {
		case token.ADD:
			return FloatV(x.F + y.F)
		case token.SUB:
			return FloatV(x.F - y.F)
		case token.MUL:
			return FloatV(x.F * y.F)
		case token.QUO:
			return FloatV(x.F / y.F)
		case token.LSS:
			return BoolV(x.F < y.F)
		case token.LEQ:
			return BoolV(x.F <= y.F)
		case token.GTR:
			return BoolV(x.F > y.F)
		case token.GEQ:
			return BoolV(x.F >= y.F)
		case token.EQL:
			return BoolV(x.F == y.F)
		case token.NEQ:
			return BoolV(x.F != y.F)
		}
	}
	if x.K == KBool && y.K == KBool {
		switch ex.Op {
		case token.EQL:
			return BoolV(x.I == y.I)
		case token.NEQ:
			return BoolV(x.I != y.I)
		}
	}
	throwf("invalid operands for %s at %s", ex.Op, ex.OpPos)
	return Value{}
}

func (in *interp) evalCall(f *frame, ex *ast.CallExpr) Value {
	switch target := ex.Target.(type) {
	case *sem.Builtin:
		return in.evalBuiltin(f, ex, target)
	case *ast.FuncDecl:
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = in.eval(f, a)
		}
		return in.callFunc(target, args, in.siteBlock, in.siteIdx)
	}
	throwf("call of unresolved function %s at %s", ex.Fun, ex.FunPos)
	return Value{}
}

func (in *interp) evalBuiltin(f *frame, ex *ast.CallExpr, b *sem.Builtin) Value {
	args := make([]Value, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = in.eval(f, a)
	}
	switch b.ID() {
	case sem.BLen:
		if args[0].A == nil {
			throwf("len of nil array at %s", ex.FunPos)
		}
		return IntV(int64(len(args[0].A.Elems)))
	case sem.BPrint, sem.BPrintln:
		for i, a := range args {
			if i > 0 {
				in.out.WriteByte(' ')
			}
			in.out.WriteString(a.String())
		}
		if b.ID() == sem.BPrintln {
			in.out.WriteByte('\n')
		}
		return VoidV()
	case sem.BIntConv:
		if args[0].K == KFloat {
			return IntV(int64(args[0].F))
		}
		return args[0]
	case sem.BFloatConv:
		if args[0].K == KInt {
			return FloatV(float64(args[0].I))
		}
		return args[0]
	case sem.BSqrt:
		return FloatV(math.Sqrt(args[0].F))
	case sem.BSin:
		return FloatV(math.Sin(args[0].F))
	case sem.BCos:
		return FloatV(math.Cos(args[0].F))
	case sem.BPow:
		return FloatV(math.Pow(args[0].F, args[1].F))
	case sem.BExp:
		return FloatV(math.Exp(args[0].F))
	case sem.BLog:
		return FloatV(math.Log(args[0].F))
	case sem.BFloor:
		return FloatV(math.Floor(args[0].F))
	case sem.BAbs:
		if args[0].K == KInt {
			if args[0].I < 0 {
				return IntV(-args[0].I)
			}
			return args[0]
		}
		return FloatV(math.Abs(args[0].F))
	}
	throwf("unknown builtin %s at %s", ex.Fun, ex.FunPos)
	return Value{}
}
