package provenance

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleExplain() *Explain {
	return &Explain{
		Program:  "counter.hj",
		Detector: "espbags",
		Engine:   "replay",
		Iterations: []Iteration{
			// Deliberately out of order: Finalize must sort by N.
			{N: 1, CPL: &CPL{Work: 15, Span: 15}},
			{
				N:     0,
				Races: []RacePair{{First: Node{ID: 6, Kind: "step", Pos: "9:17"}, Second: Node{ID: 9, Kind: "step", Pos: "10:17"}, Loc: "loc#1", Kind: "W->W"}},
				CPL:   &CPL{Work: 15, Span: 11},
				Groups: []Group{
					{
						LCA:      Node{ID: 3, Kind: "finish", Pos: "8:5"},
						Races:    []RacePair{{Loc: "loc#1"}},
						Chosen:   []Finish{{Pos: "9:9", Lo: 0, Hi: 0}},
						DPStates: 10,
						Applied:  true,
					},
					{LCA: Node{ID: 7}, Races: []RacePair{{Loc: "loc#2"}}, Applied: false, Note: "deferred"},
					{LCA: Node{ID: 8}},
				},
			},
		},
		Converged:    true,
		CoverageGaps: []string{"12:17 and 14:5 on x [R/W]"},
	}
}

func TestFinalize(t *testing.T) {
	e := sampleExplain()
	e.Finalize()
	if e.Iterations[0].N != 0 || e.Iterations[1].N != 1 {
		t.Fatal("iterations not sorted by N")
	}
	if e.CPLBefore != (CPL{Work: 15, Span: 11}) || e.CPLAfter != (CPL{Work: 15, Span: 15}) {
		t.Errorf("run CPL: before %+v after %+v", e.CPLBefore, e.CPLAfter)
	}
	// Only the applied group's chosen finish becomes an entry — the
	// deferred and pruned groups stay in the iteration record only.
	if len(e.Finishes) != 1 {
		t.Fatalf("Finishes = %d, want 1", len(e.Finishes))
	}
	f := e.Finishes[0]
	if f.Iteration != 0 || f.Finish.Pos != "9:9" || f.DPStates != 10 {
		t.Errorf("entry %+v", f)
	}
	if f.CPLBefore.Span != 11 || f.CPLAfter.Span != 15 {
		t.Errorf("entry CPL: before span %d after span %d, want 11 -> 15", f.CPLBefore.Span, f.CPLAfter.Span)
	}
	// Finalize is idempotent.
	e.Finalize()
	if len(e.Finishes) != 1 {
		t.Errorf("Finalize not idempotent: %d entries", len(e.Finishes))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	e := sampleExplain()
	e.Finalize()
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestWriteText(t *testing.T) {
	e := sampleExplain()
	e.Finalize()
	var buf bytes.Buffer
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"program: counter.hj",
		"detector: espbags (engine: replay)",
		"critical path: work 15 span 11",
		"wrap statements 0..0 at 9:9",
		"share NS-LCA finish node #3 at 8:5",
		"DP explored 10 states",
		"span 11 -> 15",
		"coverage gaps (1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextFallbackAndEmpty(t *testing.T) {
	e := &Explain{Finishes: []FinishEntry{{Fallback: true}}}
	var buf bytes.Buffer
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fallback placement") {
		t.Errorf("fallback entry not rendered: %s", buf.String())
	}

	buf.Reset()
	empty := &Explain{Converged: true}
	empty.Finalize()
	if err := empty.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no finishes inserted") {
		t.Errorf("empty record not explained: %s", buf.String())
	}
}

func TestParallelism(t *testing.T) {
	if p := (CPL{Work: 30, Span: 10}).Parallelism(); p != 3 {
		t.Errorf("Parallelism = %v, want 3", p)
	}
	if p := (CPL{}).Parallelism(); p != 0 {
		t.Errorf("zero-span Parallelism = %v, want 0", p)
	}
}
