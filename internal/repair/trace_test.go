package repair_test

import (
	"errors"
	"testing"

	"finishrepair/internal/lang/parser"
	"finishrepair/internal/obs"
	"finishrepair/internal/repair"
)

// TestRepairTracerSpans checks that a traced repair emits well-formed
// spans covering every pipeline stage of paper Fig. 6, with the final
// detection round renamed "verify".
func TestRepairTracerSpans(t *testing.T) {
	tr := obs.New()
	prog := parser.MustParse(fibSrc)
	rep, err := repair.Repair(prog, repair.Options{UseTraceFiles: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("%d spans left open", tr.OpenSpans())
	}
	recs := tr.Records()
	if err := obs.ValidateNesting(recs); err != nil {
		t.Fatalf("span nesting: %v", err)
	}
	count := map[string]int{}
	for _, r := range recs {
		count[r.Name]++
	}
	for _, phase := range []string{"repair", "iteration", "sem-check", "detect", "trace-io", "group-nslca", "dp-place", "rewrite", "verify"} {
		if count[phase] == 0 {
			t.Errorf("phase %q missing from trace; got %v", phase, count)
		}
	}
	if count["verify"] != 1 {
		t.Errorf("verify spans = %d, want exactly 1", count["verify"])
	}
	if count["iteration"] != len(rep.Iterations) {
		t.Errorf("iteration spans = %d, want %d", count["iteration"], len(rep.Iterations))
	}

	// The per-iteration report carries the breakdown the spans show.
	if rep.TotalDPStates() == 0 {
		t.Error("no DP states recorded")
	}
	for i, it := range rep.Iterations[:len(rep.Iterations)-1] {
		if it.PlaceTime == 0 && it.RewriteTime == 0 {
			t.Errorf("iteration %d: no phase durations recorded", i)
		}
	}
}

// TestRepairTraceIOBytes checks that the trace-io spans report the bytes
// each round wrote: their trace_bytes sum to Report.TraceBytes, which is
// non-zero for a racy program.
func TestRepairTraceIOBytes(t *testing.T) {
	tr := obs.New()
	rep, err := repair.Repair(parser.MustParse(fibSrc), repair.Options{UseTraceFiles: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range tr.Records() {
		for _, a := range r.Attrs {
			if r.Name == "trace-io" && a.Key == "trace_bytes" {
				sum += a.Int
			}
		}
	}
	if rep.TraceBytes == 0 || sum != int64(rep.TraceBytes) {
		t.Errorf("trace-io spans report %d trace bytes, report %d (want equal and non-zero)", sum, rep.TraceBytes)
	}
}

// TestRepairMaxIterationsError checks the typed exhaustion error and the
// partial report accompanying it.
func TestRepairMaxIterationsError(t *testing.T) {
	prog := parser.MustParse(fibSrc)
	rep, err := repair.Repair(prog, repair.Options{MaxIterations: 1})
	if err == nil {
		t.Fatal("repair within 1 iteration; fixture needs >= 2")
	}
	var mi *repair.MaxIterationsError
	if !errors.As(err, &mi) {
		t.Fatalf("error %T (%v), want *MaxIterationsError", err, err)
	}
	if mi.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", mi.Iterations)
	}
	if rep == nil || len(rep.Iterations) != 1 {
		t.Fatalf("partial report missing: %+v", rep)
	}
	if rep.Iterations[0].Races == 0 || mi.RemainingRaces == 0 {
		t.Errorf("exhausted repair lost race counts: iter=%+v err=%+v", rep.Iterations[0], mi)
	}
}
