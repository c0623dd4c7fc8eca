package repair_test

import (
	"testing"

	"finishrepair/internal/lang/parser"
	"finishrepair/internal/obs"
	"finishrepair/internal/repair"
)

// TestRepairCapturesOnceReplaysRest pins the capture-once/analyze-many
// contract: a multi-iteration repair executes the instrumented program
// exactly once (one trace-capture span), and every later detection
// round replays the trace instead (one trace-replay span per iteration
// after the first).
func TestRepairCapturesOnceReplaysRest(t *testing.T) {
	tr := obs.New()
	prog := parser.MustParse(fibSrc)
	rep, err := repair.Repair(prog, repair.Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iterations) < 2 {
		t.Fatalf("fixture repaired in %d iteration(s); need >= 2 to exercise replay", len(rep.Iterations))
	}
	count := map[string]int{}
	for _, r := range tr.Records() {
		count[r.Name]++
	}
	if count["trace-capture"] != 1 {
		t.Errorf("trace-capture spans = %d, want exactly 1 (program must execute once)", count["trace-capture"])
	}
	if want := len(rep.Iterations) - 1; count["trace-replay"] != want {
		t.Errorf("trace-replay spans = %d, want %d (one per iteration after the first)", count["trace-replay"], want)
	}
	if count["detect/espbags"] != len(rep.Iterations) {
		t.Errorf("detect/espbags spans = %d, want %d (one analysis per iteration)", count["detect/espbags"], len(rep.Iterations))
	}
}
