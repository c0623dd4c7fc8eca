package race_test

import (
	"fmt"
	"math/rand"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// sameRaces fails unless got and want list the same races in the same
// order: identical endpoint steps, location, kind and both sites.
// Endpoints are compared by identity when the lists share a tree and by
// ID otherwise.
func sameRaces(t *testing.T, what string, got, want []*race.Race, sameTree bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d races, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		ends := g.Src == w.Src && g.Dst == w.Dst
		if !sameTree {
			ends = g.Src.ID == w.Src.ID && g.Dst.ID == w.Dst.ID
		}
		if !ends || g.Loc != w.Loc || g.Kind != w.Kind || g.SrcSite != w.SrcSite || g.DstSite != w.DstSite {
			t.Fatalf("%s: race %d is %v %+v %+v, reference %v %+v %+v",
				what, i, g, g.SrcSite, g.DstSite, w, w.SrcSite, w.DstSite)
		}
	}
}

// TestResolvedMatchesReference checks the one-pass report dedupe against
// the map-based reference it replaced, on synthetic raw streams and on
// the real raw streams of the benchmark programs, and on the fused
// engine's races.
func TestResolvedMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			checkRandomStream(t, seed)
		}
	})
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := parser.Parse(b.Src(b.RepairSize))
			if err != nil {
				t.Fatal(err)
			}
			ast.StripFinishes(prog)
			info, err := sem.Check(prog)
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := race.Capture(info, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Replay straight into the detector, so its log is still raw
			// when the reference reads it.
			pristine := func(v race.Variant, o race.Oracle) (race.Detector, []*race.Race) {
				det := race.New(v, o)
				if _, err := trace.Replay(tr, trace.ReplayOptions{Prog: info.Prog, Sink: det}); err != nil {
					t.Fatal(err)
				}
				return det, race.ReferenceRaces(det)
			}
			for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
				det, want := pristine(v, race.NewBagsOracle())
				sameRaces(t, v.String(), det.Races(), want, true)
				if raw := race.RawReports(det); raw < len(want) {
					t.Fatalf("%s: %d raw reports behind %d races", v, raw, len(want))
				}
				// Resolution writes live steps back into the log; the reference
				// reads the same list from it afterwards.
				sameRaces(t, v.String()+" reference after resolve", race.ReferenceRaces(det), want, true)
			}
			_, want := pristine(race.VariantMRW, race.NewDualOracle())
			f := race.NewFused(race.VariantMRW)
			if _, err := race.Analyze(tr, info.Prog, nil, f, nil, false); err != nil {
				t.Fatal(err)
			}
			sameRaces(t, "fused", f.Races(), want, false)
			f.Release()
		})
	}
}

// checkRandomStream feeds one seeded raw stream to two logs, one
// resolved by the dedupe under test and one read only by the reference,
// and compares them after each of several rounds. Between rounds, more
// steps are collapsed (Forward chains extended), so endpoints reported
// earlier resolve differently and records that were distinct can become
// duplicates.
func checkRandomStream(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*dpst.Node, 32+rng.Intn(256))
	for i := range nodes {
		nodes[i] = &dpst.Node{ID: i, Kind: dpst.Step}
	}
	// forward collapses a live node into a live node with a smaller ID,
	// as CollapseScope does (into the enclosing scope or the preceding
	// sibling), so chains stay acyclic.
	forward := func(k int) {
		for ; k > 0; k-- {
			i := 1 + rng.Intn(len(nodes)-1)
			if nodes[i].Forward != nil {
				continue
			}
			target := nodes[rng.Intn(i)].Resolve()
			nodes[i].Forward = target
		}
	}
	forward(len(nodes) / 4)
	var got, ref race.ReportLog
	locs := 1 + rng.Intn(40)
	rounds := 1 + rng.Intn(4)
	for round := 0; round < rounds; round++ {
		// Several chunks: the first chunks hold 1, 2, 4, ... records.
		m := rng.Intn(30000)
		dst := nodes[rng.Intn(len(nodes))]
		for j := 0; j < m; j++ {
			if rng.Intn(8) == 0 {
				dst = nodes[rng.Intn(len(nodes))] // scans keep one sink for a run
			}
			src := nodes[rng.Intn(1+dst.ID)] // sources precede sinks
			loc := uint64(rng.Intn(locs))
			kind := race.Kind(rng.Intn(3))
			srcSite := trace.Site{Block: int32(rng.Intn(3)), Stmt: int32(rng.Intn(5)), Iso: rng.Intn(4) == 0, IsoClass: int32(rng.Intn(2))}
			dstSite := trace.Site{Block: int32(rng.Intn(3)), Stmt: int32(rng.Intn(5))}
			got.Report(src, dst, loc, kind, srcSite, dstSite)
			ref.Report(src, dst, loc, kind, srcSite, dstSite)
		}
		races := got.Races()
		sameRaces(t, fmt.Sprintf("seed %d round %d (%d chunks)", seed, round, got.Chunks()), races, ref.Reference(), true)
		t.Logf("seed %d round %d: %d raw reports in %d chunks, %d distinct", seed, round, got.Len(), got.Chunks(), len(races))
		forward(len(nodes) / 8)
	}
}
