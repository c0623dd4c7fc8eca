// Package trace defines the event-trace IR of the canonical sequential
// execution: a compact, replayable stream of structure events (interior
// node push/pop), step boundaries, and instrumented memory accesses.
//
// The interpreter captures a trace once and builds no tree; analyses
// then replay it many times — against different race-detector engines,
// with different collapse policies, or with additional virtual finish
// scopes injected — without re-executing the program. Replay is the
// only builder of the S-DPST, so every tree a detector's races reference
// comes from it.
package trace

import "finishrepair/internal/lang/ast"

// Kind discriminates trace events.
type Kind uint8

// Event kinds. The stream is a well-parenthesized sequence of
// EvPush/EvPop pairs (interior S-DPST nodes) interleaved with step
// boundaries and accesses, in canonical depth-first order.
const (
	// EvPush opens an interior node (async, finish, or scope): NKind and
	// Class carry the dpst classification, Block/Stmt the static
	// coordinates of the construct in its owner block, Body the ID of the
	// block its children instantiate, Label an index into the trace's
	// label table.
	EvPush Kind = iota
	// EvPop closes the innermost open interior node.
	EvPop
	// EvStep marks a step-boundary request for statement Stmt of block
	// Block (interp's step hook). Replay re-applies the
	// trailing-merge rule, so consecutive EvSteps may share one node.
	EvStep
	// EvEnd ends the current step (interp's endStep).
	EvEnd
	// EvRead is an instrumented read of memory location Loc.
	EvRead
	// EvWrite is an instrumented write of memory location Loc.
	EvWrite
)

// Event is one trace record. The struct is laid out to pack into 32
// bytes; which fields are meaningful depends on Kind (see the Kind
// constants). W is the number of work units executed since the previous
// event while a step was current — replay charges it to the step that
// was current when the event was recorded, reproducing per-node Work.
type Event struct {
	Loc   uint64 // EvRead/EvWrite: memory location
	Block int32  // EvStep/EvPush: owner block ID (-1 = none)
	Body  int32  // EvPush: body block ID (-1 = none)
	Stmt  int32  // EvStep/EvPush: statement index (-1, -2 = pseudo)
	W     uint32 // work units since previous event (in-step only)
	Kind  uint8  // event kind
	NKind uint8  // EvPush: dpst.Kind
	Class uint8  // EvPush: dpst.ScopeClass
	Label uint16 // EvPush: label table index
}

// Arena chunk sizes: a capture's first chunk holds firstChunkLen
// events and each later one twice its predecessor, up to chunkLen, so a
// short trace stays small and a long one amortizes append overhead
// over full-size chunks (the race report log grows the same way).
const (
	firstChunkLen = 64
	chunkLen      = 4096
)

// Trace is a captured event stream plus its label table.
type Trace struct {
	chunks [][]Event // all chunks full except possibly the last
	n      int
	labels []string
	// TailWork is work executed after the final event while a step was
	// current (the trailing statement units of the run).
	TailWork int64
}

// Len reports the number of events.
func (t *Trace) Len() int { return t.n }

// Label resolves a label-table index.
func (t *Trace) Label(i uint16) string {
	if int(i) < len(t.labels) {
		return t.labels[i]
	}
	return ""
}

// Events calls fn for every event in order, stopping early if fn
// returns false.
func (t *Trace) Events(fn func(i int, e *Event) bool) {
	i := 0
	for _, c := range t.chunks {
		for j := range c {
			if !fn(i, &c[j]) {
				return
			}
			i++
		}
	}
}

// Bytes estimates the in-memory footprint of the event arena.
func (t *Trace) Bytes() int64 { return int64(t.n) * 32 }

// Recorder accumulates events during an instrumented execution. It is
// arena-backed: events append into chunks that are never reallocated,
// so a sealed chunk stays where it is.
type Recorder struct {
	t       Trace
	pending uint32 // work units since the last event
	labels  map[string]uint16
	stream  *Stream // when set, sealed chunks publish as capture runs
	full    func()  // runs once, when the first full-size chunk seals
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{labels: make(map[string]uint16)}
}

// StreamTo mirrors the capture onto s: every chunk publishes the moment
// it seals (while execution continues), and Trace publishes the partial
// tail and finishes the stream. full, when non-nil, runs once on the
// recording goroutine right after the first full-size chunk publishes:
// from there on a consumer has a whole chunk to replay while the
// capture goes on, and a capture that ends sooner never calls it. Set
// the stream before recording starts. The recorder still accumulates
// the full trace, so streamed captures also yield a replayable Trace
// for later iterations.
func (r *Recorder) StreamTo(s *Stream, full func()) { r.stream, r.full = s, full }

// Trace finalizes and returns the captured trace. The recorder must not
// be used afterwards.
func (r *Recorder) Trace() *Trace {
	r.t.TailWork += int64(r.pending)
	r.pending = 0
	if r.stream != nil {
		// A full last chunk published when it sealed.
		if k := len(r.t.chunks); k > 0 && len(r.t.chunks[k-1]) < cap(r.t.chunks[k-1]) {
			r.stream.publish(r.t.chunks[k-1], r.t.labels)
		}
		r.stream.finish(r.t.TailWork)
		r.stream, r.full = nil, nil
	}
	return &r.t
}

// AddWork charges n work units to the step current at record time; they
// flush into the W field of the next event (or TailWork at the end).
func (r *Recorder) AddWork(n int64) { r.pending += uint32(n) }

func (r *Recorder) append(e Event) {
	e.W = r.pending
	r.pending = 0
	k := len(r.t.chunks)
	if k == 0 || len(r.t.chunks[k-1]) == cap(r.t.chunks[k-1]) {
		n := firstChunkLen
		if k > 0 {
			n = min(2*cap(r.t.chunks[k-1]), chunkLen)
		}
		r.t.chunks = append(r.t.chunks, make([]Event, 0, n))
		k++
	}
	c := append(r.t.chunks[k-1], e)
	r.t.chunks[k-1] = c
	r.t.n++
	if r.stream != nil && len(c) == cap(c) {
		// Sealed: the next append starts a fresh chunk, so this one is
		// immutable from here on and safe to hand to the consumer.
		r.stream.publish(c, r.t.labels)
		if r.full != nil && len(c) == chunkLen {
			f := r.full
			r.full = nil
			f()
		}
	}
}

func (r *Recorder) labelIndex(s string) uint16 {
	if i, ok := r.labels[s]; ok {
		return i
	}
	i := uint16(len(r.t.labels))
	r.t.labels = append(r.t.labels, s)
	r.labels[s] = i
	return i
}

func blockID(b *ast.Block) int32 {
	if b == nil {
		return -1
	}
	return int32(b.ID)
}

// Push records the opening of an interior node.
func (r *Recorder) Push(nkind, class uint8, label string, owner *ast.Block, stmt int, body *ast.Block) {
	r.append(Event{
		Kind:  uint8(EvPush),
		NKind: nkind,
		Class: class,
		Label: r.labelIndex(label),
		Block: blockID(owner),
		Stmt:  int32(stmt),
		Body:  blockID(body),
	})
}

// Pop records the closing of the innermost interior node.
func (r *Recorder) Pop() { r.append(Event{Kind: uint8(EvPop)}) }

// Step records a step-boundary request at statement stmt of block b.
func (r *Recorder) Step(b *ast.Block, stmt int) {
	r.append(Event{Kind: uint8(EvStep), Block: blockID(b), Stmt: int32(stmt)})
}

// End records the end of the current step.
func (r *Recorder) End() { r.append(Event{Kind: uint8(EvEnd)}) }

// Read records an instrumented read of loc.
func (r *Recorder) Read(loc uint64) { r.append(Event{Kind: uint8(EvRead), Loc: loc}) }

// Write records an instrumented write of loc.
func (r *Recorder) Write(loc uint64) { r.append(Event{Kind: uint8(EvWrite), Loc: loc}) }
