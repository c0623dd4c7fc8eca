// Package obs is the observability substrate of the repair pipeline: a
// tracer recording named phase spans (parse, sem-check, detect, NS-LCA
// grouping, DP placement, rewrite, verify — the stages of paper Fig. 6 —
// plus vet and its vet/mhp, vet/effects, and vet/candidates children
// when the static analyzer runs), a lock-cheap metrics registry
// (including the vet.* diagnostic counters), and exporters for human text, JSONL
// event logs, and Chrome trace_event JSON (chrome://tracing / Perfetto).
//
// The tracer is built around a nil fast path: a nil *Tracer and the nil
// *Span it returns are valid receivers whose methods do nothing and
// allocate nothing, so instrumented code calls
//
//	sp := tr.Start("detect").SetInt("races", n)
//	defer sp.End()
//
// unconditionally, and pays only a pointer test when tracing is off
// (BenchmarkTracerDisabled: 0 allocs/op).
package obs

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Attr is one typed span attribute. Exactly one of Int/Str is
// meaningful, selected by IsStr; keeping the value unboxed avoids
// interface allocations on the hot enabled path.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Value returns the attribute value as an interface for rendering.
func (a Attr) Value() any {
	if a.IsStr {
		return a.Str
	}
	return a.Int
}

// SpanRecord is one finished span, in the tracer's record list.
type SpanRecord struct {
	ID     int64
	Parent int64 // 0 for root spans
	Name   string
	// Start is the offset from the tracer epoch; Dur the span length.
	Start time.Duration
	Dur   time.Duration
	// AllocBytes is the heap allocation delta over the span (cumulative
	// /gc/heap/allocs:bytes, so concurrent goroutines are included), when
	// the tracer captures allocations.
	AllocBytes uint64
	Attrs      []Attr
}

// Tracer collects phase spans. The zero value is not used; create with
// New. A nil *Tracer is the disabled tracer: Start returns a nil *Span
// and nothing is recorded or allocated.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	recs    []SpanRecord
	nextID  int64
	open    int
	allocOn bool
}

// Option configures New.
type Option func(*Tracer)

// WithoutAllocs disables the per-span heap-allocation delta capture.
func WithoutAllocs() Option { return func(t *Tracer) { t.allocOn = false } }

// New returns an enabled tracer whose span timestamps are offsets from
// now. Allocation deltas are captured by default (runtime/metrics, no
// stop-the-world).
func New(opts ...Option) *Tracer {
	t := &Tracer{epoch: time.Now(), allocOn: true}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is an in-flight phase. A nil *Span (from a nil tracer) is valid:
// every method is a no-op returning the receiver.
type Span struct {
	tracer     *Tracer
	id, parent int64
	name       string
	start      time.Duration
	allocStart uint64
	attrs      []Attr
	ended      bool
}

var allocMetric = []string{"/gc/heap/allocs:bytes"}

func heapAllocs() uint64 {
	s := make([]metrics.Sample, 1)
	s[0].Name = allocMetric[0]
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Start opens a root span. On a nil tracer it returns nil.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.open_(name, 0)
}

func (t *Tracer) open_(name string, parent int64) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.open++
	t.mu.Unlock()
	s := &Span{tracer: t, id: id, parent: parent, name: name, start: time.Since(t.epoch)}
	if t.allocOn {
		s.allocStart = heapAllocs()
	}
	return s
}

// Child opens a span nested under s. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.open_(name, s.id)
}

// SetInt attaches an integer attribute. Nil-safe; returns s for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
	return s
}

// SetStr attaches a string attribute. Nil-safe; returns s for chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
	return s
}

// Rename replaces the span name (e.g. the final detection round becomes
// "verify" once it comes back race-free). Nil-safe.
func (s *Span) Rename(name string) *Span {
	if s == nil {
		return nil
	}
	s.name = name
	return s
}

// End closes the span and appends its record to the tracer. Nil-safe and
// idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.tracer
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    time.Since(t.epoch) - s.start,
		Attrs:  s.attrs,
	}
	if t.allocOn {
		if end := heapAllocs(); end >= s.allocStart {
			rec.AllocBytes = end - s.allocStart
		}
	}
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.open--
	t.mu.Unlock()
}

// Records returns a copy of the finished spans, ordered by start time.
// Nil-safe (returns nil).
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.recs))
	copy(out, t.recs)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// OpenSpans returns the number of started-but-unended spans. Nil-safe.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// ValidateNesting checks that a span set is well-formed: every span with
// a parent lies within the parent's interval, and spans sharing a parent
// do not overlap (the pipeline is sequential per nesting level), except
// that a span carrying streamed=1 — an analysis that ran beside the
// capture feeding it — may overlap its siblings.
func ValidateNesting(recs []SpanRecord) error {
	byID := make(map[int64]SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	siblings := make(map[int64][]SpanRecord)
	for _, r := range recs {
		if r.Parent != 0 {
			p, ok := byID[r.Parent]
			if !ok {
				return fmt.Errorf("obs: span %d (%s) has unknown parent %d", r.ID, r.Name, r.Parent)
			}
			if r.Start < p.Start || r.Start+r.Dur > p.Start+p.Dur {
				return fmt.Errorf("obs: span %d (%s) [%v,%v] escapes parent %d (%s) [%v,%v]",
					r.ID, r.Name, r.Start, r.Start+r.Dur, p.ID, p.Name, p.Start, p.Start+p.Dur)
			}
		}
		if !streamed(r) {
			siblings[r.Parent] = append(siblings[r.Parent], r)
		}
	}
	for parent, group := range siblings {
		sort.Slice(group, func(i, j int) bool { return group[i].Start < group[j].Start })
		for i := 1; i < len(group); i++ {
			prev, cur := group[i-1], group[i]
			if cur.Start < prev.Start+prev.Dur {
				return fmt.Errorf("obs: siblings of %d overlap: %s [%v,%v] and %s [%v,%v]",
					parent, prev.Name, prev.Start, prev.Start+prev.Dur, cur.Name, cur.Start, cur.Start+cur.Dur)
			}
		}
	}
	return nil
}

// streamed reports whether r carries the integer attribute streamed=1.
func streamed(r SpanRecord) bool {
	for _, a := range r.Attrs {
		if a.Key == "streamed" && !a.IsStr && a.Int == 1 {
			return true
		}
	}
	return false
}
