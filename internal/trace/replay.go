package trace

import (
	"fmt"

	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
)

// Site is the static coordinate of one instrumented access: the block
// and statement index of the statement executing when the access
// happened (more precise than the merged maximal step, which may span
// many statements), plus whether the access occurred inside an isolated
// body. Race-detector engines use Iso to suppress pairs that the global
// isolated lock orders, and the repair strategies use Block/Stmt to wrap
// exactly the racing statement.
type Site struct {
	Block int32 // owner block ID (-1 = unknown)
	Stmt  int32 // statement index (-1 = loop-header pseudo)
	Iso   bool  // access executed inside an isolated body
	// IsoClass is the lock class of the OUTERMOST isolated body
	// enclosing the access (meaningful only when Iso is set): the
	// outermost lock is the one actually held against other tasks.
	// Engines suppress an isolated pair only when the two classes
	// exclude each other — either is 0 (the global lock) or they are
	// equal; different nonzero classes run concurrently.
	IsoClass int32
}

// Sink receives the reconstructed execution during replay: structure
// events in canonical depth-first order plus instrumented accesses with
// the current step and access site. Race-detector engines implement
// Sink.
type Sink interface {
	Read(loc uint64, step *dpst.Node, site Site)
	Write(loc uint64, step *dpst.Node, site Site)
	TaskStart(n *dpst.Node)
	TaskEnd(n *dpst.Node)
	FinishStart(n *dpst.Node)
	FinishEnd(n *dpst.Node)
}

// RangeKind selects what construct a virtual range injects.
type RangeKind uint8

// Virtual range kinds. The zero value is a finish so pre-existing
// literals keep their meaning.
const (
	RangeFinish   RangeKind = iota // finish { ... }: joins child tasks
	RangeIsolated                  // isolated { ... }: global mutual exclusion
)

// String names the range kind.
func (k RangeKind) String() string {
	if k == RangeIsolated {
		return "isolated"
	}
	return "finish"
}

// FinishRange is a virtual scope to inject during replay: during any
// dynamic instance of block BlockID, the construct selected by Kind
// (finish by default, isolated for RangeIsolated) opens before the
// first event of statement Lo and closes after the last event of
// statement Hi. Coordinates are in the trace's (original) program, so
// accumulated repair placements replay against one capture without
// rewriting or re-executing the source.
type FinishRange struct {
	BlockID int
	Lo, Hi  int
	Kind    RangeKind
	// Class is the lock class of an injected isolated range (see
	// ast.IsolatedStmt.LockClass); 0 — the global lock — for finishes
	// and for source-level isolated semantics.
	Class int
}

// ReplayOptions configures a replay.
type ReplayOptions struct {
	// Prog resolves block IDs back to blocks; it must be the program the
	// trace was captured from (or a structurally identical reparse).
	Prog *ast.Program
	// Finishes are virtual finish scopes to inject (may be nil).
	Finishes []FinishRange
	// Sink receives the replayed execution (may be nil).
	Sink Sink
	// NoCollapse disables maximal-step collapsing of task-free scope
	// subtrees (the paper's §9 "garbage collection of parts of the
	// S-DPST that do not exhibit race conditions", realized eagerly).
	// Coverage and the ablation study use it; detection collapses.
	NoCollapse bool
	// Meter, when set, bounds the replay: periodic cancellation/deadline
	// checks and the S-DPST node budget. Replay charges no interpreter
	// ops — the work was already paid for at capture time.
	Meter *guard.Meter
}

// Result is the reconstructed execution.
type Result struct {
	Tree  *dpst.Tree
	Steps int
}

// nopSink discards all events.
type nopSink struct{}

func (nopSink) Read(uint64, *dpst.Node, Site)  {}
func (nopSink) Write(uint64, *dpst.Node, Site) {}
func (nopSink) TaskStart(*dpst.Node)           {}
func (nopSink) TaskEnd(*dpst.Node)             {}
func (nopSink) FinishStart(*dpst.Node)         {}
func (nopSink) FinishEnd(*dpst.Node)           {}

// injState tracks virtual-finish progress through one dynamic block
// instance. Synthetic finish frames share their parent frame's state so
// a range is opened at most once per instance.
type injState struct {
	block   int32
	pending []FinishRange // sorted by (Lo asc, Hi desc): outermost first
	next    int
}

// rframe is one open interior node during replay.
type rframe struct {
	node      *dpst.Node
	synthetic bool  // injected virtual scope
	iso       bool  // frame is an isolated body (real or injected)
	lo, hi    int32 // synthetic: statement range in the owner block
	inj       *injState
}

type replayer struct {
	tree       *dpst.Tree
	sink       Sink
	noCollapse bool
	meter      *guard.Meter
	nodeLimit  int64
	nodes      int64
	steps      int
	curStep    *dpst.Node
	frames     []rframe
	blocks     map[int32]*ast.Block
	ranges     map[int32][]FinishRange
	labels     []string // label-table snapshot of the current chunk

	// Access-site attribution: coordinates of the last step boundary,
	// the current isolated-nesting depth, and the lock class of the
	// outermost open isolated frame (0 when isoDepth == 0).
	siteBlock int32
	siteStmt  int32
	isoDepth  int
	isoClass  int32
}

// checkMask gates the periodic meter check: every 4096 events.
const checkMask = 1<<12 - 1

// eventSource abstracts where replay pulls events from: a fully
// captured Trace (all chunks immediately available) or a live Stream
// (nextChunk blocks until capture seals the next one). Replay state —
// open frames, virtual-finish injection, the step state machine — lives
// in the replayer and carries across chunk seams untouched, so a
// virtual finish may open in one chunk and close in a later one.
type eventSource interface {
	// nextChunk returns chunk i and the label table covering it;
	// ok=false when the source is exhausted, with err set if the
	// producer failed.
	nextChunk(i int) (events []Event, labels []string, ok bool, err error)
	// tailWork reports work trailing the final event; valid once
	// nextChunk has returned ok=false with a nil error.
	tailWork() int64
}

// nextChunk returns the i'th captured chunk (Trace is a fully-available
// event source).
func (t *Trace) nextChunk(i int) ([]Event, []string, bool, error) {
	if i < len(t.chunks) {
		return t.chunks[i], t.labels, true, nil
	}
	return nil, nil, false, nil
}

func (t *Trace) tailWork() int64 { return t.TailWork }

// Replay reconstructs the execution recorded in tr, feeding sink and
// building the S-DPST: steps open at step boundaries (extending the
// trailing step of the same block when a collapsed scope left one),
// interior nodes at pushes, and scopes collapse into maximal steps as
// they pop. Injected finishes appear exactly where re-executing the
// rewritten program would put them; finish statements are free in the
// cost model, so no other node changes.
func Replay(tr *Trace, opts ReplayOptions) (*Result, error) {
	return replayFrom(tr, opts)
}

// ReplayStream is Replay over a live capture stream: it consumes chunks
// as the recorder seals them, blocking until the next chunk (or the end
// of the capture) is available, and produces exactly the result a batch
// replay of the completed trace would.
func ReplayStream(s *Stream, opts ReplayOptions) (*Result, error) {
	return replayFrom(s, opts)
}

func replayFrom(src eventSource, opts ReplayOptions) (res *Result, err error) {
	r := &replayer{
		tree:       dpst.NewTree(),
		sink:       opts.Sink,
		noCollapse: opts.NoCollapse,
		meter:      opts.Meter,
		nodeLimit:  opts.Meter.MaxSDPSTNodes(),
		blocks:     make(map[int32]*ast.Block),
		ranges:     groupRanges(opts.Finishes),
		siteBlock:  -1,
		siteStmt:   -1,
	}
	if r.sink == nil {
		r.sink = nopSink{}
	}
	if opts.Prog != nil {
		for _, b := range ast.Blocks(opts.Prog) {
			r.blocks[int32(b.ID)] = b
		}
	}
	r.frames = append(r.frames, rframe{node: r.tree.Root})

	defer func() {
		if p := recover(); p != nil {
			if b, ok := p.(guard.Bail); ok {
				err = b.Err
				return
			}
			panic(p)
		}
	}()

	r.sink.TaskStart(r.tree.Root)
	i := 0
	for ci := 0; ; ci++ {
		events, labels, ok, serr := src.nextChunk(ci)
		if serr != nil {
			return nil, serr
		}
		if !ok {
			break
		}
		r.labels = labels
		for j := range events {
			e := &events[j]
			if e.W > 0 && r.curStep != nil {
				r.curStep.Work += int64(e.W)
			}
			if i&checkMask == 0 && r.meter != nil {
				if cerr := r.meter.Check(); cerr != nil {
					panic(guard.Bail{Err: cerr})
				}
			}
			switch Kind(e.Kind) {
			case EvStep:
				r.boundary(e.Block, e.Stmt)
				r.ensureStep(e.Block, e.Stmt)
				r.siteBlock, r.siteStmt = e.Block, e.Stmt
			case EvEnd:
				r.curStep = nil
			case EvRead:
				r.sink.Read(e.Loc, r.curStep, r.site())
			case EvWrite:
				r.sink.Write(e.Loc, r.curStep, r.site())
			case EvPush:
				r.boundary(e.Block, e.Stmt)
				r.push(e)
			case EvPop:
				if len(r.frames) == 1 {
					return nil, fmt.Errorf("trace: unbalanced pop at event %d", i)
				}
				r.pop()
			default:
				return nil, fmt.Errorf("trace: unknown event kind %d at event %d", e.Kind, i)
			}
			i++
		}
	}
	if tw := src.tailWork(); tw > 0 && r.curStep != nil {
		r.curStep.Work += tw
	}
	for len(r.frames) > 1 && r.top().synthetic {
		r.closeSynthetic()
	}
	if len(r.frames) != 1 {
		return nil, fmt.Errorf("trace: %d unclosed nodes at end of stream", len(r.frames)-1)
	}
	r.sink.TaskEnd(r.tree.Root)
	r.curStep = nil
	r.tree.AggregateWork()
	return &Result{Tree: r.tree, Steps: r.steps}, nil
}

// groupRanges buckets and canonicalizes the virtual finish set: per
// block, sorted by (Lo asc, Hi desc) so nested ranges open outermost
// first, with exact duplicates dropped.
func groupRanges(fins []FinishRange) map[int32][]FinishRange {
	if len(fins) == 0 {
		return nil
	}
	m := make(map[int32][]FinishRange)
	for _, f := range fins {
		m[int32(f.BlockID)] = append(m[int32(f.BlockID)], f)
	}
	for id, rs := range m {
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			}
		}
		out := rs[:0]
		for i, f := range rs {
			if i > 0 && f == rs[i-1] {
				continue
			}
			out = append(out, f)
		}
		m[id] = out
	}
	return m
}

func less(a, b FinishRange) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	if a.Hi != b.Hi {
		return a.Hi > b.Hi
	}
	return a.Kind < b.Kind
}

func (r *replayer) top() *rframe { return &r.frames[len(r.frames)-1] }

// site is the static coordinate of the current access point.
func (r *replayer) site() Site {
	return Site{Block: r.siteBlock, Stmt: r.siteStmt, Iso: r.isoDepth > 0, IsoClass: r.isoClass}
}

// enterIso tracks an isolated frame opening with the given lock class;
// the outermost frame's class is the lock actually held.
func (r *replayer) enterIso(class int) {
	if r.isoDepth == 0 {
		r.isoClass = int32(class)
	}
	r.isoDepth++
}

func (r *replayer) exitIso() {
	r.isoDepth--
	if r.isoDepth == 0 {
		r.isoClass = 0
	}
}

func (r *replayer) block(id int32) *ast.Block {
	if id < 0 {
		return nil
	}
	return r.blocks[id]
}

func (r *replayer) noteNode() {
	r.nodes++
	if r.nodeLimit > 0 && r.nodes > r.nodeLimit {
		panic(guard.Bail{Err: r.meter.NodeBudgetError(r.nodes)})
	}
}

// ensureStep opens a step at a step boundary, or extends the current
// one; with no current step it first tries the trailing-merge rule for
// maximal steps: a trailing step of the same block, left by a collapsed
// scope, is extended instead of starting a new one.
func (r *replayer) ensureStep(bid, stmt int32) {
	b := r.block(bid)
	idx := int(stmt)
	cn := r.top().node
	if r.curStep == nil {
		if k := len(cn.Children); k > 0 {
			last := cn.Children[k-1]
			if last.Kind == dpst.Step && last.OwnerBlock == b {
				r.curStep = last
			}
		}
	}
	if r.curStep != nil {
		if idx >= 0 {
			if idx > r.curStep.StmtHi {
				r.curStep.StmtHi = idx
			}
			if r.curStep.StmtLo == -2 {
				r.curStep.StmtLo = idx
			}
		}
		return
	}
	r.noteNode()
	s := r.tree.NewChild(cn, dpst.Step, dpst.NotScope, "")
	s.OwnerBlock = b
	s.StmtLo, s.StmtHi = idx, idx
	r.curStep = s
	r.steps++
}

// label resolves a label-table index against the current chunk's
// snapshot.
func (r *replayer) label(i uint16) string {
	if int(i) < len(r.labels) {
		return r.labels[i]
	}
	return ""
}

func (r *replayer) push(e *Event) {
	r.curStep = nil
	r.noteNode()
	n := r.tree.NewChild(r.top().node, dpst.Kind(e.NKind), dpst.ScopeClass(e.Class), r.label(e.Label))
	n.OwnerBlock = r.block(e.Block)
	n.StmtLo, n.StmtHi = int(e.Stmt), int(e.Stmt)
	n.Body = r.block(e.Body)
	iso := n.Kind == dpst.Scope && n.Class == dpst.IsoScope
	if iso {
		// Events carry no lock class; resolve it from the AST: the
		// frame's construct is OwnerBlock.Stmts[StmtLo].
		cls := 0
		if ob := n.OwnerBlock; ob != nil && n.StmtLo >= 0 && n.StmtLo < len(ob.Stmts) {
			if is, ok := ob.Stmts[n.StmtLo].(*ast.IsolatedStmt); ok {
				cls = is.LockClass
			}
		}
		n.IsoClass = cls
		r.enterIso(cls)
	}
	r.frames = append(r.frames, rframe{node: n, iso: iso})
	switch n.Kind {
	case dpst.Async:
		r.sink.TaskStart(n)
	case dpst.Finish:
		r.sink.FinishStart(n)
	}
}

func (r *replayer) pop() {
	// Re-execution closes finishes inside a construct before the
	// construct itself ends; mirror that for open virtual scopes.
	for r.top().synthetic {
		r.closeSynthetic()
	}
	f := r.top()
	n := f.node
	if f.iso {
		r.exitIso()
	}
	switch n.Kind {
	case dpst.Async:
		r.sink.TaskEnd(n)
	case dpst.Finish:
		r.sink.FinishEnd(n)
	}
	r.curStep = nil
	r.frames = r.frames[:len(r.frames)-1]
	if !r.noCollapse {
		r.tree.CollapseScope(n)
	}
}

// boundary advances virtual-finish injection at a step or push event
// for statement s of block b: it closes open synthetic finishes whose
// range does not contain s (s may move past Hi, or jump below Lo when a
// loop's post statement runs at the header pseudo-index), then opens
// any not-yet-opened ranges containing s, outermost first. Ranges whose
// statements never execute (dead code after a return) are simply never
// opened — exactly as a finish statement that never runs.
func (r *replayer) boundary(b, s int32) {
	if b < 0 || len(r.ranges) == 0 {
		return
	}
	top := r.top()
	var inj *injState
	if top.synthetic {
		inj = top.inj
	} else {
		if top.inj == nil {
			rs := r.ranges[b]
			if len(rs) == 0 {
				return
			}
			top.inj = &injState{block: b, pending: rs}
		}
		inj = top.inj
	}
	if inj == nil || inj.block != b {
		return
	}
	for {
		t := r.top()
		if !t.synthetic || (s >= t.lo && s <= t.hi) {
			break
		}
		r.closeSynthetic()
	}
	for inj.next < len(inj.pending) {
		p := inj.pending[inj.next]
		if int32(p.Lo) > s {
			break
		}
		inj.next++
		if int32(p.Hi) < s {
			continue
		}
		r.openSynthetic(b, p, inj)
	}
}

func (r *replayer) openSynthetic(b int32, p FinishRange, inj *injState) {
	r.curStep = nil
	r.noteNode()
	var n *dpst.Node
	iso := p.Kind == RangeIsolated
	if iso {
		n = r.tree.NewChild(r.top().node, dpst.Scope, dpst.IsoScope, "isolated")
		n.IsoClass = p.Class
		r.enterIso(p.Class)
	} else {
		n = r.tree.NewChild(r.top().node, dpst.Finish, dpst.NotScope, "finish")
	}
	n.OwnerBlock = r.block(b)
	n.StmtLo, n.StmtHi = p.Lo, p.Hi
	r.frames = append(r.frames, rframe{
		node: n, synthetic: true, iso: iso,
		lo: int32(p.Lo), hi: int32(p.Hi), inj: inj,
	})
	if !iso {
		r.sink.FinishStart(n)
	}
}

func (r *replayer) closeSynthetic() {
	f := r.top()
	n := f.node
	if f.iso {
		r.exitIso()
	} else {
		r.sink.FinishEnd(n)
	}
	r.curStep = nil
	r.frames = r.frames[:len(r.frames)-1]
	// An injected isolated scope collapses exactly as re-executing the
	// rewritten program would collapse it (its subtree never spawns
	// tasks); CollapseScope is a no-op for synthetic finishes.
	if !r.noCollapse {
		r.tree.CollapseScope(n)
	}
}
