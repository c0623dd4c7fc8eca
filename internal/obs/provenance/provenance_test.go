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
		Iterations: []Iteration{
			// Deliberately out of order: Finalize must sort by N.
			{N: 1, CPL: &CPL{Work: 15, Span: 15}},
			{
				N:   0,
				CPL: &CPL{Work: 15, Span: 11},
				Groups: []Group{
					{
						LCA:      Node{ID: 3, Kind: "finish", Pos: "8:5"},
						Classes:  []RaceClass{{Kind: "W->W", First: Node{ID: 6, Kind: "step", Pos: "9:17"}, Second: Node{ID: 9, Kind: "step", Pos: "10:17"}, Races: 1, Locs: []uint64{1}}},
						Chosen:   []Finish{{Pos: "9:9", Lo: 0, Hi: 0}},
						DPStates: 10,
						Applied:  true,
					},
					{LCA: Node{ID: 7}, Classes: []RaceClass{{Races: 1, Locs: []uint64{2}}}, Applied: false, Note: "deferred"},
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
	// deferred and empty groups stay in the iteration record only.
	if len(e.Finishes) != 1 {
		t.Fatalf("Finishes = %d, want 1", len(e.Finishes))
	}
	f := e.Finishes[0]
	gs := e.GroupsOf(f)
	if f.Iteration != 0 || f.Finish.Pos != "9:9" || len(gs) != 1 || gs[0].DPStates != 10 {
		t.Errorf("entry %+v, groups %+v", f, gs)
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

// Two groups that choose the same range, one of them listing it twice,
// get one entry that names both; a second round numbers its groups
// afresh.
func TestFinalizeSharedScope(t *testing.T) {
	shared := Finish{Pos: "12:5", Lo: 2, Hi: 2}
	other := Finish{Pos: "14:5", Lo: 4, Hi: 4}
	e := &Explain{Iterations: []Iteration{
		{N: 0, CPL: &CPL{Work: 30, Span: 20}, Groups: []Group{
			{LCA: Node{ID: 4, Kind: "async", Pos: "14:9"}, Classes: []RaceClass{{Races: 1, Locs: []uint64{1}}}, Chosen: []Finish{shared, shared}, Applied: true},
			{LCA: Node{ID: 5, Kind: "async", Pos: "15:9"}, Classes: []RaceClass{{Races: 1, Locs: []uint64{2}}}, Chosen: []Finish{other}, Note: "deferred"},
			{LCA: Node{ID: 6, Kind: "async", Pos: "16:9"}, Classes: []RaceClass{{Races: 1, Locs: []uint64{3}}, {Races: 1, Locs: []uint64{4}}}, Chosen: []Finish{shared}, DPStates: 12, Vertices: 5, DPVertices: 3, Applied: true},
		}},
		{N: 1, CPL: &CPL{Work: 30, Span: 25}, Groups: []Group{
			{LCA: Node{ID: 5, Kind: "async", Pos: "15:9"}, Classes: []RaceClass{{Races: 1, Locs: []uint64{2}}}, Chosen: []Finish{other}, Applied: true},
		}},
		{N: 2, CPL: &CPL{Work: 30, Span: 26}},
	}}
	for pass := 0; pass < 2; pass++ {
		e.Finalize()
		want := []FinishEntry{
			{Iteration: 0, Finish: shared, Groups: []int{0, 2}, CPLBefore: CPL{30, 20}, CPLAfter: CPL{30, 25}},
			{Iteration: 1, Finish: other, Groups: []int{0}, CPLBefore: CPL{30, 25}, CPLAfter: CPL{30, 26}},
		}
		if !reflect.DeepEqual(e.Finishes, want) {
			t.Fatalf("pass %d: Finishes = %+v\nwant %+v", pass, e.Finishes, want)
		}
	}
	gs := e.GroupsOf(e.Finishes[0])
	if len(gs) != 2 || gs[0].LCA.ID != 4 || gs[1].LCA.ID != 6 {
		t.Errorf("GroupsOf = %+v, want the groups at NS-LCA 4 and 6", gs)
	}

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

	buf.Reset()
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"finish 1 (iteration 0): wrap statements 2..2 at 12:5\n  why: 2 NS-LCA groups chose it\n",
		"  - 1 race(s) share NS-LCA async node #4 at 14:9; DP explored 0 states\n",
		"  - 2 race(s) share NS-LCA async node #6 at 16:9; DP explored 12 states over 3 of 5 vertices\n",
		"finish 2 (iteration 1): wrap statements 4..4 at 14:5\n  why: 1 race(s) share NS-LCA async node #5 at 15:9\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, " race(s) on "); n != 4 {
		t.Errorf("text prints %d class lines, want 4 (each class once):\n%s", n, out)
	}
}

// A group that chose two scopes lists its race classes under the first
// only.
func TestWriteTextListsEachRaceOnce(t *testing.T) {
	e := &Explain{Iterations: []Iteration{
		{N: 0, Groups: []Group{{
			LCA:     Node{ID: 2, Kind: "finish", Pos: "3:5"},
			Classes: []RaceClass{{Races: 1, Locs: []uint64{1}}, {Races: 1, Locs: []uint64{2}}},
			Chosen:  []Finish{{Pos: "4:9", Lo: 0, Hi: 0}, {Pos: "6:9", Lo: 2, Hi: 2}},
			Applied: true,
		}}},
		{N: 1},
	}}
	e.Finalize()
	if len(e.Finishes) != 2 {
		t.Fatalf("Finishes = %d, want 2", len(e.Finishes))
	}
	var buf bytes.Buffer
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, " race(s) on "); n != 2 {
		t.Errorf("text prints %d class lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "races listed under finish 1") {
		t.Errorf("second block does not point at the first:\n%s", out)
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
		"detector: espbags\n",
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
	e := &Explain{
		Iterations: []Iteration{{Groups: []Group{{Fallback: true}}}},
		Finishes:   []FinishEntry{{Groups: []int{0}}},
	}
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

// Each race class prints one line with its count and locations, the root
// NS-LCA reads "program root", and the record is written compactly.
func TestWriteTextClassLines(t *testing.T) {
	e := &Explain{Iterations: []Iteration{
		{N: 0, Groups: []Group{{
			LCA: Node{ID: 0, Kind: "root"},
			Classes: []RaceClass{
				{Kind: "W->W", First: Node{Pos: "9:17"}, Second: Node{Pos: "10:17"}, Races: 2, Locs: []uint64{1, 2}},
				{Kind: "W->R", First: Node{Pos: "53:17"}, Races: 2576, Locs: []uint64{5, 6}},
			},
			Chosen:  []Finish{{Pos: "4:9"}},
			Applied: true,
		}}},
		{N: 1},
	}}
	e.Finalize()
	var buf bytes.Buffer
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"why: 2578 race(s) share NS-LCA program root\n",
		"  W->W 9:17 vs 10:17: 2 race(s) on loc#1, loc#2\n",
		"  W->R 53:17 vs ?: 2576 race(s) on loc#5, loc#6, ...\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Errorf("JSON spans %d lines, want 1 (compact):\n%s", n, buf.String())
	}
}
