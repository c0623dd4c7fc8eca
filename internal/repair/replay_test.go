package repair_test

import (
	"os"
	"path/filepath"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/obs"
	"finishrepair/internal/repair"
)

// strippedTable1 parses a Table-1 program at repair size with its
// finishes stripped: every such capture fills full-size trace chunks.
func strippedTable1(t testing.TB, name string) *ast.Program {
	t.Helper()
	b := bench.Get(name)
	prog := parser.MustParse(b.Src(b.RepairSize))
	ast.StripFinishes(prog)
	return prog
}

// TestRepairCapturesOnceReplaysRest pins the capture-once/analyze-many
// contract: a multi-iteration repair executes the instrumented program
// exactly once (one trace-capture span), and every later detection
// round replays the trace instead (one trace-replay span per iteration
// after the first). It holds for a short program, analyzed after its
// capture, and for stripped Quicksort, whose first-round analysis
// overlaps the capture.
func TestRepairCapturesOnceReplaysRest(t *testing.T) {
	for name, prog := range map[string]*ast.Program{
		"fib":       parser.MustParse(fibSrc),
		"quicksort": strippedTable1(t, "Quicksort"),
	} {
		t.Run(name, func(t *testing.T) {
			tr := obs.New()
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
		})
	}
}

// TestRepairFirstRoundOverlapsLongCaptures checks what decides whether
// the first round overlaps: at one worker, round 0's detect/espbags
// span carries streamed=1 for stripped Mandelbrot, whose capture fills
// full-size chunks, and not for examples/hj/sumsq.hj, which never fills
// one. The overlapped spans stay nested in their parents, and the
// overlapped round's detect span is shorter than its two children
// added up.
func TestRepairFirstRoundOverlapsLongCaptures(t *testing.T) {
	sumsq, err := os.ReadFile(filepath.Join("..", "..", "examples", "hj", "sumsq.hj"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		prog     *ast.Program
		streamed bool
	}{
		{"mandelbrot", strippedTable1(t, "Mandelbrot"), true},
		{"sumsq", parser.MustParse(string(sumsq)), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := obs.New()
			if _, err := repair.Repair(c.prog, repair.Options{Tracer: tr, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			recs := tr.Records()
			if err := obs.ValidateNesting(recs); err != nil {
				t.Fatalf("span nesting: %v", err)
			}
			byID := map[int64]obs.SpanRecord{}
			for _, r := range recs {
				byID[r.ID] = r
			}
			var round0 []obs.SpanRecord // children of iteration 0's detect span
			for _, r := range recs {
				p := byID[r.Parent]
				if pp := byID[p.Parent]; p.Name == "detect" && pp.Name == "iteration" && attr(pp, "n") == 0 {
					round0 = append(round0, r)
				}
			}
			var capture, analysis *obs.SpanRecord
			for i, r := range round0 {
				switch r.Name {
				case "trace-capture":
					capture = &round0[i]
				case "detect/espbags":
					analysis = &round0[i]
				}
			}
			if capture == nil || analysis == nil {
				t.Fatalf("round 0 lacks trace-capture or detect/espbags: %v", round0)
			}
			if got := attr(*analysis, "streamed") == 1; got != c.streamed {
				t.Fatalf("round 0 streamed = %v, want %v (%d events)", got, c.streamed, attr(*capture, "events"))
			}
			if c.streamed {
				detect := byID[analysis.Parent]
				if detect.Dur >= capture.Dur+analysis.Dur {
					t.Errorf("overlapped detect %v is not shorter than capture %v plus analysis %v",
						detect.Dur, capture.Dur, analysis.Dur)
				}
			}
		})
	}
}

// attr returns r's integer attribute key, or -1 when r has none.
func attr(r obs.SpanRecord, key string) int64 {
	for _, a := range r.Attrs {
		if a.Key == key && !a.IsStr {
			return a.Int
		}
	}
	return -1
}
