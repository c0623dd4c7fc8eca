package race

import "fmt"

// EngineKind selects a race-detector backend.
type EngineKind int

// Detector engines. ESP-Bags is the paper's detector; VC is the
// vector-clock detector after Kumar et al.; Both is the fused engine,
// one shadow scan whose every ordering query both oracles answer and
// must agree on.
const (
	EngineESPBags EngineKind = iota
	EngineVC
	EngineBoth
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineVC:
		return "vc"
	case EngineBoth:
		return "both"
	default:
		return "espbags"
	}
}

// Engine is a pluggable race-detector backend: a Detector (which is
// also a trace.Sink) plus a stable name for spans and reports.
type Engine interface {
	Detector
	Name() string
}

type namedEngine struct {
	Detector
	name string
}

func (e namedEngine) Name() string { return e.name }

// Presize forwards to the wrapped detector when it supports pre-sizing.
func (e namedEngine) Presize(events int) {
	if p, ok := e.Detector.(Presizer); ok {
		p.Presize(events)
	}
}

// Release forwards to the wrapped detector when it is poolable.
func (e namedEngine) Release() {
	if r, ok := e.Detector.(Releaser); ok {
		r.Release()
	}
}

// ShadowCells forwards to the wrapped detector when it can report its
// shadow-memory size; 0 otherwise.
func (e namedEngine) ShadowCells() int {
	if s, ok := e.Detector.(ShadowSizer); ok {
		return s.ShadowCells()
	}
	return 0
}

// NewEngine builds a detector engine of the given kind and variant.
// EngineBoth returns a *Fused.
func NewEngine(k EngineKind, v Variant) Engine {
	switch k {
	case EngineVC:
		return namedEngine{New(v, NewVCOracle()), "vc"}
	case EngineBoth:
		return NewFused(v)
	default:
		return namedEngine{New(v, NewBagsOracle()), "espbags"}
	}
}

// DisagreementError reports a divergence between two detector engines
// run over the same execution: a differential-testing failure, never an
// expected outcome.
type DisagreementError struct {
	Engines [2]string // engine names
	Counts  [2]int    // race counts per engine
	Detail  string    // first difference, for diagnostics
}

// Error renders the disagreement.
func (e *DisagreementError) Error() string {
	return fmt.Sprintf("detector engines disagree: %s found %d race(s), %s found %d; %s",
		e.Engines[0], e.Counts[0], e.Engines[1], e.Counts[1], e.Detail)
}
