package race_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
)

// raceFingerprint renders a detector's races as a sorted,
// tree-independent fingerprint: replay assigns node IDs
// deterministically, so IDs are comparable across separate analyses of
// the same trace.
func raceFingerprint(det race.Detector) []string {
	var out []string
	for _, r := range det.Races() {
		out = append(out, fmt.Sprintf("%s:%d->%d@%d", r.Kind, r.Src.ID, r.Dst.ID, r.Loc))
	}
	sort.Strings(out)
	return out
}

// TestAnalyzeParallelMatchesSerial runs the both engine (the fused
// engine at every worker count) over the same captured trace through
// Analyze and through AnalyzeParallel at 4 workers and requires
// identical race sets, with the cross-check passing on both.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
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

			serial := race.NewEngine(race.EngineBoth, race.VariantMRW)
			if _, err := race.Analyze(tr, info.Prog, nil, serial, nil, false); err != nil {
				t.Fatal(err)
			}
			if err := serial.Check(); err != nil {
				t.Fatalf("serial cross-check: %v", err)
			}
			want := raceFingerprint(serial)

			par := race.NewEngine(race.EngineBoth, race.VariantMRW)
			if _, err := race.AnalyzeParallel(tr, info.Prog, nil, par, nil, false, 4); err != nil {
				t.Fatal(err)
			}
			if err := par.Check(); err != nil {
				t.Fatalf("parallel cross-check: %v", err)
			}
			got := raceFingerprint(par)

			if len(got) != len(want) {
				t.Fatalf("race count differs: serial %d, parallel %d", len(want), len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("race %d differs: serial %s, parallel %s", i, want[i], got[i])
				}
			}
			par.Release()
		})
	}
}

// TestAnalyzeParallelFallsThrough checks that a single-oracle engine and
// the fused engine at a worker count of 1 still detect through
// AnalyzeParallel.
func TestAnalyzeParallelFallsThrough(t *testing.T) {
	b := bench.Get("Mergesort")
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
	for name, mk := range map[string]func() race.Engine{
		"single-engine": func() race.Engine { return race.NewEngine(race.EngineESPBags, race.VariantMRW) },
		"workers-1":     func() race.Engine { return race.NewEngine(race.EngineBoth, race.VariantMRW) },
	} {
		workers := 4
		if name == "workers-1" {
			workers = 1
		}
		eng := mk()
		if _, err := race.AnalyzeParallel(tr, info.Prog, nil, eng, nil, false, workers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(eng.Races()) == 0 {
			t.Fatalf("%s: expected races on stripped Mergesort", name)
		}
	}
}

// TestCaptureAnalyzeStreamedMatchesBatch runs CaptureAnalyze, whose
// analysis overlaps the capture on every stripped Table-1 program, and
// requires the races in the same order, the same tree and the same
// complete trace as batch capture-then-analyze.
func TestCaptureAnalyzeStreamedMatchesBatch(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			mkInfo := func() *sem.Info {
				prog, err := parser.Parse(b.Src(b.RepairSize))
				if err != nil {
					t.Fatal(err)
				}
				ast.StripFinishes(prog)
				info, err := sem.Check(prog)
				if err != nil {
					t.Fatal(err)
				}
				return info
			}

			batchInfo := mkInfo()
			_, tr, err := race.Capture(batchInfo, nil)
			if err != nil {
				t.Fatal(err)
			}
			batch := race.NewFused(race.VariantMRW)
			brr, err := race.Analyze(tr, batchInfo.Prog, nil, batch, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			want := seqFingerprint(batch)
			wantCells := batch.ShadowCells()
			batch.Release()

			streamInfo := mkInfo()
			eng := race.NewFused(race.VariantMRW)
			tracer := obs.New()
			sp := tracer.Start("detect")
			_, str, srr, err := race.CaptureAnalyze(streamInfo, nil, eng, nil, false, sp)
			sp.End()
			if err != nil {
				t.Fatal(err)
			}
			if !streamedSpan(tracer) {
				t.Fatalf("%d events did not overlap capture and analysis", str.Len())
			}
			if err := eng.Check(); err != nil {
				t.Fatalf("streamed cross-check: %v", err)
			}
			if str.Len() != tr.Len() {
				t.Fatalf("streamed capture length %d differs from batch %d", str.Len(), tr.Len())
			}
			if got := seqFingerprint(eng); !reflect.DeepEqual(want, got) {
				t.Fatalf("streamed race stream differs:\nbatch    %v\nstreamed %v", want, got)
			}
			if brr.Steps != srr.Steps || brr.Tree.NumNodes() != srr.Tree.NumNodes() ||
				brr.Tree.Root.Work != srr.Tree.Root.Work || wantCells != eng.ShadowCells() {
				t.Fatalf("streamed tree or counts differ: steps %d/%d, nodes %d/%d, work %d/%d, cells %d/%d",
					srr.Steps, brr.Steps, srr.Tree.NumNodes(), brr.Tree.NumNodes(),
					srr.Tree.Root.Work, brr.Tree.Root.Work, eng.ShadowCells(), wantCells)
			}
			eng.Release()
		})
	}
}

// streamedSpan reports whether tracer recorded an analysis span that
// overlapped its capture (attribute streamed=1).
func streamedSpan(tracer *obs.Tracer) bool {
	for _, r := range tracer.Records() {
		for _, a := range r.Attrs {
			if a.Key == "streamed" && a.Int == 1 {
				return true
			}
		}
	}
	return false
}
