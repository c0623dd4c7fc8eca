package main

import (
	"strings"
	"testing"

	"finishrepair/internal/obs/provenance"
)

// TestHjreportChipsCountEveryRound renders a record whose races span
// two rounds and whose first scope two groups chose: the races chip
// totals every round, the finishes chip counts one per scope, and the
// shared scope's timeline row sums its groups' races and shows the
// first group's strategy and DP states.
func TestHjreportChipsCountEveryRound(t *testing.T) {
	races := func(n int) []provenance.RaceClass {
		return []provenance.RaceClass{{Kind: "W->W", First: provenance.Node{Kind: "step", Pos: "4:9"}, Races: n, Locs: []uint64{1}}}
	}
	shared := provenance.Finish{Pos: "5:9", Lo: 1, Hi: 1}
	ex := &provenance.Explain{
		Iterations: []provenance.Iteration{
			{N: 0, CPL: &provenance.CPL{Work: 40, Span: 10}, Groups: []provenance.Group{
				{LCA: provenance.Node{ID: 3, Kind: "async"}, Classes: races(2), Chosen: []provenance.Finish{shared},
					DPStates: 7, Applied: true, Strategy: "finish"},
				{LCA: provenance.Node{ID: 8, Kind: "async"}, Classes: races(1), Chosen: []provenance.Finish{shared},
					DPStates: 4, Applied: true, Strategy: "isolated"},
			}},
			{N: 1, CPL: &provenance.CPL{Work: 40, Span: 20}, Groups: []provenance.Group{
				{LCA: provenance.Node{ID: 2, Kind: "finish"}, Classes: races(3),
					Chosen: []provenance.Finish{{Pos: "9:5", Lo: 3, Hi: 3}}, DPStates: 2, Applied: true},
			}},
			{N: 2, CPL: &provenance.CPL{Work: 40, Span: 25}},
		},
		Converged: true,
	}
	ex.Finalize()
	d := buildReport("t", ex, nil, nil)

	chips := map[string]string{}
	for _, c := range d.Chips {
		chips[c.Label] = c.Value
	}
	if chips["races found"] != "6" || chips["finishes inserted"] != "2" {
		t.Errorf("chips %v, want 6 races found and 2 finishes inserted", chips)
	}
	if len(d.Finishes) != 2 {
		t.Fatalf("%d timeline rows, want 2", len(d.Finishes))
	}
	f := d.Finishes[0]
	if f.Races != 3 || f.More != 1 || f.First.Strategy != "finish" || f.First.DPStates != 7 {
		t.Errorf("shared row: races %d, more %d, first group %+v; want 3, 1 and the group at async#3",
			f.Races, f.More, f.First)
	}

	var page strings.Builder
	if err := render(&page, d); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"+1 more group(s)", `<td class="num">3</td>`, `<td><code>loc#1, ...</code></td>`} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}
