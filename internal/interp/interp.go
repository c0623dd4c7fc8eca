package interp

import (
	"bytes"

	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/internal/trace"
)

// Mode selects how parallel constructs are executed.
type Mode int

// Execution modes.
const (
	// DepthFirst executes asyncs inline in depth-first order (the
	// canonical sequential execution used for race detection).
	DepthFirst Mode = iota
	// Elide ignores async and finish entirely: the serial elision. Used
	// as the semantic reference and for HJ-Seq timings.
	Elide
)

// Options configures a run.
type Options struct {
	Mode Mode
	// Trace, when set, instruments the run: structure events, step
	// boundaries, and memory accesses stream into the recorder, and
	// arrays get location numbers, so analyses can replay the execution
	// without re-running it (trace.Replay builds its S-DPST). Requires
	// the DepthFirst mode.
	Trace *trace.Recorder
	// OpLimit bounds this run's work units; 0 means the shared default
	// (guard.DefaultOpLimit), so sequential, instrumented, and parallel
	// runs all agree on one bound.
	OpLimit int64
	// Meter, when set, threads the pipeline's shared budget through the
	// hot loop: cumulative op accounting and periodic
	// cancellation/deadline checks. Nil costs one pointer test.
	Meter *guard.Meter
}

// Result summarizes a run.
type Result struct {
	Output string
	Work   int64 // total work units executed
	// Globals is the final value of every global variable slot, in slot
	// order. The adversarial scheduler compares it (rendered via
	// RenderState) against controlled-schedule runs: two executions agree
	// only if both output and final shared state match.
	Globals []Value
}

// Run executes the checked program and returns the result. Runtime
// faults are returned as *RuntimeError.
func Run(info *sem.Info, opts Options) (*Result, error) {
	in := &interp{
		info:    info,
		opts:    opts,
		ev:      opts.Trace,
		opLimit: opts.OpLimit,
		meter:   opts.Meter,
	}
	if in.ev != nil && opts.Mode != DepthFirst {
		return nil, &RuntimeError{Msg: "trace capture requires the depth-first mode"}
	}
	if in.opLimit == 0 {
		in.opLimit = guard.DefaultOpLimit
	}
	if in.ev != nil {
		in.nextLoc = 1 + uint64(info.GlobalCount)
	}
	in.globals = make([]Value, info.GlobalCount)

	res := &Result{}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if re, ok := r.(*RuntimeError); ok {
					err = re
					return
				}
				// Budget trips and cancellations unwind via guard.Bail;
				// return the typed error they carry.
				if b, ok := r.(guard.Bail); ok {
					err = b.Err
					return
				}
				panic(r)
			}
		}()
		for _, g := range info.Prog.Globals {
			in.execGlobal(g)
		}
		main := info.Prog.Func("main")
		in.callFunc(main, nil, nil, 0)
		return nil
	}()

	// Flush the unbatched tail so cumulative accounting across pipeline
	// runs stays accurate; enforcement already happened in tick.
	if in.meter != nil && in.sinceMeter > 0 {
		_ = in.meter.AddOps(in.sinceMeter)
		in.sinceMeter = 0
	}

	in.endStep()
	res.Output = in.out.String()
	res.Work = in.work
	res.Globals = in.globals
	return res, err
}

type frame struct {
	slots []Value
}

type interp struct {
	info    *sem.Info
	opts    Options
	globals []Value
	out     bytes.Buffer

	work    int64
	opLimit int64

	// Event-trace capture (nil = off). stepOpen is set between a step
	// boundary and the end of that step; only then is work charged to
	// the recorder.
	ev       *trace.Recorder
	stepOpen bool
	nextLoc  uint64

	// Shared pipeline budget (nil = unlimited); sinceMeter batches the
	// meter calls so the hot loop stays one increment and two compares.
	meter      *guard.Meter
	sinceMeter int64

	// Innermost statement coordinates, for call scopes opened
	// mid-expression.
	siteBlock *ast.Block
	siteIdx   int

	// isoDepth is the lexical isolated-nesting depth of the current
	// execution point (runtime backstop for the sem isolation check).
	isoDepth int
}

// meterBatch is how many ticks elapse between flushes to the shared
// meter (which itself checks cancellation every guard check interval).
const meterBatch = 1024

// tick charges one work unit to the current step.
func (in *interp) tick() {
	in.work++
	if in.work > in.opLimit {
		panic(guard.Bail{Err: &guard.BudgetExceededError{
			Resource: guard.ResourceOps,
			Phase:    in.meter.CurrentPhase(),
			Limit:    in.opLimit,
			Used:     in.work,
		}})
	}
	if in.meter != nil {
		if in.sinceMeter++; in.sinceMeter >= meterBatch {
			in.sinceMeter = 0
			if err := in.meter.AddOps(meterBatch); err != nil {
				panic(guard.Bail{Err: err})
			}
		}
	}
	if in.stepOpen {
		in.ev.AddWork(1)
	}
}

// ensureStep records a step boundary at statement idx of block b (replay
// opens a step there or extends the trailing one). It also records the
// statement site so that a step can be reopened after an interior node
// (e.g. a call scope) ends mid-statement.
func (in *interp) ensureStep(b *ast.Block, idx int) {
	if in.ev == nil {
		return
	}
	in.siteBlock, in.siteIdx = b, idx
	in.ev.Step(b, idx)
	in.stepOpen = true
}

func (in *interp) endStep() {
	if in.stepOpen {
		in.ev.End()
		in.stepOpen = false
	}
}

// pushNode records the opening of an interior S-DPST node for the
// construct at statement idx of block owner, whose children instantiate
// body.
func (in *interp) pushNode(kind dpst.Kind, class dpst.ScopeClass, label string, owner *ast.Block, idx int, body *ast.Block) {
	if in.ev == nil {
		return
	}
	in.endStep()
	in.ev.Push(uint8(kind), uint8(class), label, owner, idx, body)
}

func (in *interp) popNode() {
	if in.ev == nil {
		return
	}
	in.endStep()
	in.ev.Pop()
}

func (in *interp) readLoc(loc uint64) {
	if in.ev != nil && loc != 0 {
		if !in.stepOpen {
			// A call scope ended mid-statement; resume a step at the
			// recorded statement site.
			in.ensureStep(in.siteBlock, in.siteIdx)
		}
		in.ev.Read(loc)
	}
}

func (in *interp) writeLoc(loc uint64) {
	if in.ev != nil && loc != 0 {
		if !in.stepOpen {
			in.ensureStep(in.siteBlock, in.siteIdx)
		}
		in.ev.Write(loc)
	}
}

func (in *interp) execGlobal(g *ast.VarDeclStmt) {
	in.ensureStep(nil, 0)
	in.tick()
	sym := g.Sym.(*sem.Symbol)
	var v Value
	if g.Init != nil {
		v = in.eval(nil, g.Init)
	} else {
		v = zeroValue(g.Type)
	}
	in.globals[sym.Slot] = v
	// Global initialization happens before main and is ordered before
	// everything; it is not reported to the access listener.
}

// control-flow signal for return statements.
type ctrl struct {
	returned bool
	val      Value
}

func (in *interp) execBlock(f *frame, b *ast.Block) ctrl {
	for i, s := range b.Stmts {
		if c := in.execStmt(f, b, i, s); c.returned {
			return c
		}
	}
	return ctrl{}
}

func (in *interp) execStmt(f *frame, b *ast.Block, idx int, s ast.Stmt) ctrl {
	switch st := s.(type) {
	case *ast.VarDeclStmt:
		in.ensureStep(b, idx)
		in.tick()
		sym := st.Sym.(*sem.Symbol)
		var v Value
		if st.Init != nil {
			v = in.eval(f, st.Init)
		} else {
			v = zeroValue(st.Type)
		}
		f.slots[sym.Slot] = v
		return ctrl{}

	case *ast.AssignStmt:
		in.ensureStep(b, idx)
		in.tick()
		in.execAssign(f, st)
		return ctrl{}

	case *ast.ExprStmt:
		in.ensureStep(b, idx)
		in.tick()
		in.setCallSite(b, idx)
		in.eval(f, st.X)
		return ctrl{}

	case *ast.ReturnStmt:
		in.ensureStep(b, idx)
		in.tick()
		var v Value
		if st.Value != nil {
			in.setCallSite(b, idx)
			v = in.eval(f, st.Value)
		}
		return ctrl{returned: true, val: v}

	case *ast.IfStmt:
		in.ensureStep(b, idx)
		in.tick()
		in.setCallSite(b, idx)
		cond := in.eval(f, st.Cond)
		if cond.Bool() {
			in.pushNode(dpst.Scope, dpst.IfScope, "if", b, idx, st.Then)
			c := in.execBlock(f, st.Then)
			in.popNode()
			return c
		}
		if st.Else != nil {
			in.pushNode(dpst.Scope, dpst.ElseScope, "else", b, idx, st.Else)
			c := in.execBlock(f, st.Else)
			in.popNode()
			return c
		}
		return ctrl{}

	case *ast.WhileStmt:
		in.ensureStep(b, idx)
		in.tick()
		in.pushNode(dpst.Scope, dpst.LoopScope, "while", b, idx, st.Body)
		for {
			in.pushNode(dpst.Scope, dpst.LoopIter, "iter", st.Body, -1, st.Body)
			in.ensureStep(st.Body, -1)
			in.setCallSite(st.Body, -1)
			cond := in.eval(f, st.Cond)
			if !cond.Bool() {
				in.popNode()
				break
			}
			in.endStep()
			c := in.execBlock(f, st.Body)
			in.popNode()
			if c.returned {
				in.popNode()
				return c
			}
		}
		in.popNode()
		return ctrl{}

	case *ast.ForStmt:
		in.ensureStep(b, idx)
		in.tick()
		in.pushNode(dpst.Scope, dpst.LoopScope, "for", b, idx, st.Body)
		if st.Init != nil {
			// The init statement is charged to a header pseudo-step of
			// the loop scope.
			if c := in.execStmt(f, st.Body, -1, st.Init); c.returned {
				in.popNode()
				return c
			}
			in.endStep()
		}
		for {
			in.pushNode(dpst.Scope, dpst.LoopIter, "iter", st.Body, -1, st.Body)
			if st.Cond != nil {
				in.ensureStep(st.Body, -1)
				in.setCallSite(st.Body, -1)
				cond := in.eval(f, st.Cond)
				if !cond.Bool() {
					in.popNode()
					break
				}
				in.endStep()
			}
			c := in.execBlock(f, st.Body)
			if c.returned {
				in.popNode()
				in.popNode()
				return c
			}
			if st.Post != nil {
				if c := in.execStmt(f, st.Body, -1, st.Post); c.returned {
					in.popNode()
					in.popNode()
					return c
				}
			}
			in.popNode()
		}
		in.popNode()
		return ctrl{}

	case *ast.AsyncStmt:
		if in.isoDepth > 0 {
			// Runtime backstop for the sem check: calls can smuggle an
			// async into an isolated body only if the checker was bypassed.
			throwf("async not allowed inside isolated at %s", st.AsyncPos)
		}
		in.ensureStep(b, idx)
		in.tick()
		in.pushNode(dpst.Async, dpst.NotScope, "async", b, idx, st.Body)
		if in.opts.Mode == Elide {
			c := in.execBlock(f, st.Body)
			in.popNode()
			// In the elision, return inside what was an async body
			// returns from the enclosing function.
			return c
		}
		// Depth-first inline execution with a by-value snapshot of the
		// parent frame (HJ final-variable capture semantics).
		child := &frame{slots: make([]Value, len(f.slots))}
		copy(child.slots, f.slots)
		in.execBlock(child, st.Body)
		in.popNode()
		return ctrl{}

	case *ast.FinishStmt:
		// Finish statements are free in the cost model so that repaired
		// programs have exactly the work of the original.
		if in.isoDepth > 0 {
			throwf("finish not allowed inside isolated at %s", st.FinishPos)
		}
		in.pushNode(dpst.Finish, dpst.NotScope, "finish", b, idx, st.Body)
		c := in.execBlock(f, st.Body)
		in.popNode()
		return c

	case *ast.IsolatedStmt:
		// Isolated statements are free in the cost model, like finish, so
		// that repaired programs have exactly the work of the original.
		// Serially the body just runs inline; the IsoScope class marks the
		// region so collapse attributes its work as serialized IsoWork.
		in.isoDepth++
		in.pushNode(dpst.Scope, dpst.IsoScope, "isolated", b, idx, st.Body)
		c := in.execBlock(f, st.Body)
		in.popNode()
		in.isoDepth--
		return c

	case *ast.BlockStmt:
		in.ensureStep(b, idx)
		in.tick()
		in.pushNode(dpst.Scope, dpst.BlockScope, "block", b, idx, st.Body)
		c := in.execBlock(f, st.Body)
		in.popNode()
		return c
	}
	throwf("unknown statement %T", s)
	return ctrl{}
}

func (in *interp) execAssign(f *frame, st *ast.AssignStmt) {
	rhs := in.eval(f, st.RHS)
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		sym := lhs.Sym.(*sem.Symbol)
		if st.Op != token.ASSIGN {
			old := in.loadVar(sym, f)
			rhs = applyCompound(st, old, rhs)
		}
		in.storeVar(sym, f, rhs)
	case *ast.IndexExpr:
		arr, i := in.evalIndexTarget(f, lhs)
		if st.Op != token.ASSIGN {
			in.readLoc(arr.Base + uint64(i))
			old := arr.Elems[i]
			rhs = applyCompound(st, old, rhs)
		}
		arr.Elems[i] = rhs
		in.writeLoc(arr.Base + uint64(i))
	default:
		throwf("invalid assignment target %T", st.LHS)
	}
}

func applyCompound(st *ast.AssignStmt, old, rhs Value) Value {
	switch old.K {
	case KInt:
		switch st.Op {
		case token.ADDASSIGN:
			return IntV(old.I + rhs.I)
		case token.SUBASSIGN:
			return IntV(old.I - rhs.I)
		case token.MULASSIGN:
			return IntV(old.I * rhs.I)
		case token.QUOASSIGN:
			if rhs.I == 0 {
				throwf("integer division by zero")
			}
			return IntV(old.I / rhs.I)
		}
	case KFloat:
		switch st.Op {
		case token.ADDASSIGN:
			return FloatV(old.F + rhs.F)
		case token.SUBASSIGN:
			return FloatV(old.F - rhs.F)
		case token.MULASSIGN:
			return FloatV(old.F * rhs.F)
		case token.QUOASSIGN:
			return FloatV(old.F / rhs.F)
		}
	}
	throwf("invalid compound assignment %s on value kind %d", st.Op, old.K)
	return Value{}
}

func (in *interp) loadVar(sym *sem.Symbol, f *frame) Value {
	if sym.Kind == sem.GlobalVar {
		in.readLoc(1 + uint64(sym.Slot))
		return in.globals[sym.Slot]
	}
	return f.slots[sym.Slot]
}

func (in *interp) storeVar(sym *sem.Symbol, f *frame, v Value) {
	if sym.Kind == sem.GlobalVar {
		in.globals[sym.Slot] = v
		in.writeLoc(1 + uint64(sym.Slot))
		return
	}
	f.slots[sym.Slot] = v
}

func (in *interp) evalIndexTarget(f *frame, lhs *ast.IndexExpr) (*Array, int64) {
	av := in.eval(f, lhs.X)
	iv := in.eval(f, lhs.Index)
	if av.A == nil {
		throwf("index of nil array at %s", lhs.Pos())
	}
	if iv.I < 0 || iv.I >= int64(len(av.A.Elems)) {
		throwf("index %d out of range [0,%d) at %s", iv.I, len(av.A.Elems), lhs.Pos())
	}
	return av.A, iv.I
}

func zeroValue(t ast.Type) Value {
	switch tt := t.(type) {
	case *ast.PrimType:
		switch tt.Kind {
		case ast.Int:
			return IntV(0)
		case ast.Float:
			return FloatV(0)
		case ast.Bool:
			return BoolV(false)
		default:
			return StringV("")
		}
	case *ast.ArrayType:
		return Value{K: KArray}
	}
	return VoidV()
}

// callSite tracks the statement coordinates of the innermost statement
// being executed, so that call scopes opened mid-expression know their
// static position.
func (in *interp) setCallSite(b *ast.Block, idx int) {
	in.siteBlock, in.siteIdx = b, idx
}

func (in *interp) callFunc(fn *ast.FuncDecl, args []Value, siteBlock *ast.Block, siteIdx int) Value {
	in.pushNode(dpst.Scope, dpst.CallScope, fn.Name, siteBlock, siteIdx, fn.Body)
	nf := &frame{slots: make([]Value, in.info.FrameSize[fn])}
	copy(nf.slots, args)
	c := in.execBlock(nf, fn.Body)
	in.popNode()
	if c.returned {
		return c.val
	}
	return VoidV()
}
