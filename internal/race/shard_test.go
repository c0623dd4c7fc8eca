package race_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
)

// testShardCounts is the shard-count dimension for the determinism
// tests; the CI matrix overrides it via TDR_TEST_SHARDS.
func testShardCounts(t *testing.T) []int {
	if s := os.Getenv("TDR_TEST_SHARDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad TDR_TEST_SHARDS=%q", s)
		}
		return []int{n}
	}
	return []int{1, 2, 8}
}

// seqFingerprint renders races in their reported sequence order,
// unsorted: the sharded merge must reproduce the serial scan's race
// stream exactly, ordering included, not just the same set.
func seqFingerprint(det race.Detector) []string {
	var out []string
	for _, r := range det.Races() {
		out = append(out, fmt.Sprintf("%s:%d->%d@%d", r.Kind, r.Src.ID, r.Dst.ID, r.Loc))
	}
	return out
}

// TestFusedMatchesIndependentEngines checks that the fused dual-oracle
// engine reports exactly the races of independently run ESP-Bags and
// vector-clock engines on every benchmark program, with a clean
// per-query cross-check.
func TestFusedMatchesIndependentEngines(t *testing.T) {
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
			for _, v := range []race.Variant{race.VariantSRW, race.VariantMRW} {
				bags, diff := analyzeIndependently(t, tr, info.Prog, v, false)
				if diff != "" {
					t.Fatalf("independent engines disagree (%s): %s", v, diff)
				}
				fused := race.NewFused(v)
				if _, err := race.Analyze(tr, info.Prog, nil, fused, nil, false); err != nil {
					t.Fatal(err)
				}
				if err := fused.Check(); err != nil {
					t.Fatalf("fused cross-check (%s): %v", v, err)
				}
				want, got := seqFingerprint(bags), seqFingerprint(fused)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("race streams differ (%s):\nespbags %v\nfused   %v", v, want, got)
				}
				fused.Release()
				if r, ok := bags.(race.Releaser); ok {
					r.Release()
				}
			}
		})
	}
}

// TestShardedDeterministicAcrossShardCounts analyzes each benchmark
// trace with the sharded fused engine at several shard counts and
// requires the race stream — order included — to be identical to the
// serial fused scan's: shard count must never change the result.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	counts := testShardCounts(t)
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
			serial := race.NewFused(race.VariantMRW)
			if _, err := race.Analyze(tr, info.Prog, nil, serial, nil, false); err != nil {
				t.Fatal(err)
			}
			want := seqFingerprint(serial)
			serial.Release()
			for _, w := range counts {
				f := race.NewFused(race.VariantMRW)
				if _, err := race.AnalyzeSharded(tr, info.Prog, nil, f, nil, false, w); err != nil {
					t.Fatalf("shards=%d: %v", w, err)
				}
				if err := f.Check(); err != nil {
					t.Fatalf("shards=%d cross-check: %v", w, err)
				}
				if got := seqFingerprint(f); !reflect.DeepEqual(want, got) {
					t.Fatalf("race stream differs at shards=%d:\nserial  %v\nsharded %v", w, want, got)
				}
				f.Release()
			}
		})
	}
}

// checkShardedAgreesSerial captures src once and checks, for both
// variants and both collapse policies, that the sharded fused analysis
// reproduces the serial fused analysis exactly. Programs that exceed
// the op budget or fail semantic checks are skipped, mirroring the
// differential property harness.
func checkShardedAgreesSerial(t *testing.T, name, src string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		return
	}
	ast.StripFinishes(prog)
	info, err := sem.Check(prog)
	if err != nil {
		return
	}
	m := guard.NewMeter(context.Background(), guard.Budget{OpLimit: 2_000_000})
	_, tr, err := race.Capture(info, m)
	if err != nil {
		t.Logf("%s: capture skipped: %v", name, err)
		return
	}
	for _, v := range []race.Variant{race.VariantSRW, race.VariantMRW} {
		for _, noCollapse := range []bool{false, true} {
			serial := race.NewFused(v)
			if _, err := race.Analyze(tr, info.Prog, nil, serial, nil, noCollapse); err != nil {
				t.Fatalf("%s (%s, noCollapse=%v): %v", name, v, noCollapse, err)
			}
			if err := serial.Check(); err != nil {
				t.Errorf("%s (%s, noCollapse=%v): serial %v", name, v, noCollapse, err)
			}
			want := seqFingerprint(serial)
			serial.Release()

			f := race.NewFused(v)
			if _, err := race.AnalyzeSharded(tr, info.Prog, nil, f, nil, noCollapse, 3); err != nil {
				t.Fatalf("%s (%s, noCollapse=%v): sharded %v", name, v, noCollapse, err)
			}
			if err := f.Check(); err != nil {
				t.Errorf("%s (%s, noCollapse=%v): sharded %v", name, v, noCollapse, err)
			}
			if got := seqFingerprint(f); !reflect.DeepEqual(want, got) {
				t.Errorf("%s (%s, noCollapse=%v): sharded race stream differs\nserial  %v\nsharded %v",
					name, v, noCollapse, want, got)
			}
			f.Release()
		}
	}
}

// TestShardedAgreesOnFuzzCorpus runs the sharded==serial property over
// every seed of the checked-in repair fuzz corpus.
func TestShardedAgreesOnFuzzCorpus(t *testing.T) {
	for name, src := range fuzzCorpusSeeds(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkShardedAgreesSerial(t, name, src)
		})
	}
}

// TestShardedAgreesOnGeneratedPrograms fuzzes the sharded==serial
// property with deterministic generated programs.
func TestShardedAgreesOnGeneratedPrograms(t *testing.T) {
	for seed := int64(5000); seed < 5040; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			checkShardedAgreesSerial(t, fmt.Sprintf("progen-%d", seed), progen.Gen(seed, progen.Default()))
		})
	}
}

// TestCaptureAnalyzeStreamedSharded forces the sharded streaming
// consumer (GOMAXPROCS permitting shards) and checks it against the
// batch serial fused scan. Not parallel: it adjusts GOMAXPROCS so the
// shard clamp cannot collapse the consumer to the serial path on
// single-CPU machines.
func TestCaptureAnalyzeStreamedSharded(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	b := bench.Get("Mergesort")
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
	_, str, _, err := race.CaptureAnalyzeStreamed(streamInfo, nil, eng, nil, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Check(); err != nil {
		t.Fatalf("sharded streamed cross-check: %v", err)
	}
	if str.Len() != tr.Len() {
		t.Fatalf("streamed capture length %d differs from batch %d", str.Len(), tr.Len())
	}
	if got := seqFingerprint(eng); !reflect.DeepEqual(want, got) {
		t.Fatalf("sharded streamed race stream differs:\nbatch    %v\nstreamed %v", want, got)
	}
	eng.Release()
}

// TestCaptureAnalyzeStreamedMatchesBatch overlaps capture with the
// (sharded) streaming analysis and requires the same races and the same
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
