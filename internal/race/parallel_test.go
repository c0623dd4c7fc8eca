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

// TestCaptureAnalyzeStreamedMatchesBatch overlaps capture with the
// streaming analysis and requires the same races and the same
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
			if _, err := race.Analyze(tr, batchInfo.Prog, nil, batch, nil, false); err != nil {
				t.Fatal(err)
			}
			want := seqFingerprint(batch)
			batch.Release()

			streamInfo := mkInfo()
			eng := race.NewFused(race.VariantMRW)
			_, str, _, err := race.CaptureAnalyzeStreamed(streamInfo, nil, eng, nil, false, 2)
			if err != nil {
				t.Fatal(err)
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
			eng.Release()
		})
	}
}
