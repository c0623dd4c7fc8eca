package race

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

// Engine is a race-detector backend: one shadow memory (SRW or MRW)
// checked against one ordering oracle, plus a stable name for spans and
// reports. Every kind is the same concrete type; only the oracle
// differs.
type Engine interface {
	Detector
	Name() string
	// Check returns a *DisagreementError if the fused engine's two
	// oracles answered an ordering query differently; nil for every
	// other engine. It stays valid after Release.
	Check() error
}

// engine is the one Engine implementation: a detector over the oracle
// its kind selects.
type engine struct {
	Detector
	kind EngineKind
	dual *DualOracle // the fused engine's oracle; nil for the others
}

// NewEngine builds a detector engine of the given kind and variant.
func NewEngine(k EngineKind, v Variant) Engine {
	e := &engine{kind: k}
	var o Oracle
	switch k {
	case EngineVC:
		o = NewVCOracle()
	case EngineBoth:
		e.dual = NewDualOracle()
		o = e.dual
	default:
		o = NewBagsOracle()
	}
	e.Detector = New(v, o)
	return e
}

// NewFused returns the fused differential engine: one shadow memory of
// the given variant, scanned once, with every ordering query answered
// by both the ESP-Bags and vector-clock oracles in lockstep. It is
// NewEngine(EngineBoth, v), the engine behind -detector both at every
// -j.
func NewFused(v Variant) Engine { return NewEngine(EngineBoth, v) }

// Name identifies the engine: "espbags", "vc" or "both".
func (e *engine) Name() string { return e.kind.String() }

func (e *engine) Check() error {
	if e.dual == nil || e.dual.div == nil {
		return nil
	}
	return &DisagreementError{Divergence: *e.dual.div}
}

// DisagreementError reports the first ordering query on which the
// fused engine's ESP-Bags and vector-clock oracles answered
// differently: a differential-testing failure, never an expected
// outcome. The engine has one race list, so the query is the only
// information.
type DisagreementError struct {
	Divergence OracleDivergence
}

// Error renders the disagreement.
func (e *DisagreementError) Error() string {
	return "detector engines disagree: " + e.Divergence.String()
}
