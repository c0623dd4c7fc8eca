package race

import (
	"errors"
	"strings"
	"testing"

	"finishrepair/internal/dpst"
)

// TestFusedDisagreementNamesOnlyTheQuery records one ordering-query
// divergence on a both engine and checks that Check reports that query,
// both steps and both oracles' answers, and no race count: the fused
// engine has one race list, so a count per oracle would read as if the
// oracles agreed. Every other engine's Check is nil.
func TestFusedDisagreementNamesOnlyTheQuery(t *testing.T) {
	for _, k := range []EngineKind{EngineESPBags, EngineVC, EngineBoth} {
		eng := NewEngine(k, VariantMRW)
		if err := eng.Check(); err != nil {
			t.Errorf("%s: fresh engine: Check() = %v", k, err)
		}
		eng.Release()
	}

	eng := NewEngine(EngineBoth, VariantMRW).(*engine)
	defer eng.Release()
	eng.TaskStart(&dpst.Node{ID: 0})
	// Epoch 5 of the root task: ESP-Bags finds the root's S-bag and
	// answers ordered, but the root's own clock component reads 1, so
	// the vector-clock oracle answers not ordered.
	if got := eng.dual.Ordered(5, &dpst.Node{ID: 7}, &dpst.Node{ID: 9}); !got {
		t.Fatalf("dual Ordered = %v, want the ESP-Bags answer true", got)
	}
	err := eng.Check()
	var de *DisagreementError
	if !errors.As(err, &de) {
		t.Fatalf("Check() = %v, want a *DisagreementError", err)
	}
	want := OracleDivergence{PrevTag: 5, PrevStep: 7, CurStep: 9, Bags: true, VC: false}
	if de.Divergence != want {
		t.Errorf("Divergence = %+v, want %+v", de.Divergence, want)
	}
	msg := err.Error()
	for _, s := range []string{"step 7", "step 9", "espbags=true", "vc=false"} {
		if !strings.Contains(msg, s) {
			t.Errorf("Check() = %q, missing %q", msg, s)
		}
	}
	for _, s := range []string{"race", "found"} {
		if strings.Contains(msg, s) {
			t.Errorf("Check() = %q names a race count (%q)", msg, s)
		}
	}
}
