package bench_test

import (
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

// TestOriginalsAreRaceFree: each expert-written benchmark must have no
// races on its repair input (they are the ground truth of §7.1).
func TestOriginalsAreRaceFree(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, err := parser.Parse(b.Src(b.RepairSize))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			info, err := sem.Check(prog)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			_, tree, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if n := len(det.Races()); n != 0 {
				for i, r := range det.Races() {
					if i >= 5 {
						break
					}
					t.Logf("race: %v", r)
				}
				t.Fatalf("%d races in expert-written %s", n, b.Name)
			}
			if err := tree.Validate(); err != nil {
				t.Errorf("invalid S-DPST: %v", err)
			}
		})
	}
}

// TestStrippedAreRacy: removing all finishes must introduce detectable
// races in every benchmark — otherwise there is nothing to repair.
func TestStrippedAreRacy(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			srw, mrw, err := bench.RaceCounts(b, b.RepairSize)
			if err != nil {
				t.Fatal(err)
			}
			if mrw == 0 {
				t.Fatalf("no MRW races in stripped %s", b.Name)
			}
			if srw == 0 {
				t.Fatalf("no SRW races in stripped %s", b.Name)
			}
			if mrw < srw {
				t.Errorf("MRW found fewer races (%d) than SRW (%d)", mrw, srw)
			}
			t.Logf("SRW=%d MRW=%d", srw, mrw)
		})
	}
}

// TestRepairAllBenchmarks is the core §7.1 experiment: strip, repair,
// verify race freedom, output equality with the serial elision, and
// that the repair preserves the expert version's critical path length
// (maximal parallelism).
func TestRepairAllBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			st, err := bench.RunRepair(b, race.VariantMRW, b.RepairSize)
			if err != nil {
				t.Fatal(err)
			}
			if !st.OutputOK {
				t.Error("repaired output differs from serial elision")
			}
			if st.Races == 0 {
				t.Error("no races found to repair")
			}
			if st.Inserted == 0 {
				t.Error("no finishes inserted")
			}
			if st.WorkOriginal != st.WorkRepaired {
				t.Errorf("work changed: original %d, repaired %d", st.WorkOriginal, st.WorkRepaired)
			}
			slack := st.SpanOriginal + st.SpanOriginal/10
			if st.SpanRepaired > slack {
				t.Errorf("repair lost parallelism: span %d vs expert %d", st.SpanRepaired, st.SpanOriginal)
			}
			if len(st.Stages) == 0 {
				t.Error("no stage latency distributions in RepairStats")
			}
			for _, sl := range st.Stages {
				if sl.Count == 0 || sl.P95Ns < sl.P50Ns || sl.P99Ns < sl.P95Ns {
					t.Errorf("stage %s: bad quantiles %+v", sl.Stage, sl)
				}
			}
			t.Logf("races=%d inserted=%d iters=%d span: expert=%d repaired=%d (work %d)",
				st.Races, st.Inserted, st.Iterations, st.SpanOriginal, st.SpanRepaired, st.WorkOriginal)
		})
	}
}

// TestRepairSRWConverges: the SRW detector misses races per run but the
// iterated tool must still reach race freedom with the same semantics.
func TestRepairSRWConverges(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			st, err := bench.RunRepair(b, race.VariantSRW, b.RepairSize)
			if err != nil {
				t.Fatal(err)
			}
			if !st.OutputOK {
				t.Error("repaired output differs from serial elision")
			}
			t.Logf("SRW iterations=%d races(first)=%d", st.Iterations, st.Races)
		})
	}
}

// TestParallelExecutionMatches: the expert-written benchmarks must
// produce the serial elision's output when executed with real
// parallelism on the taskpar runtime.
func TestParallelExecutionMatches(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Src(b.RepairSize)
			info, err := loadChecked(src)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := interp.RunParallel(info, interp.ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			einfo, err := loadChecked(src)
			if err != nil {
				t.Fatal(err)
			}
			ast.StripFinishes(einfo.Prog)
			einfo, err = sem.Check(einfo.Prog)
			if err != nil {
				t.Fatal(err)
			}
			eres, err := interp.Run(einfo, interp.Options{Mode: interp.Elide})
			if err != nil {
				t.Fatal(err)
			}
			if pres.Output != eres.Output {
				t.Errorf("parallel output %q != elision %q", pres.Output, eres.Output)
			}
		})
	}
}

// TestRepairedSourceRoundTrip: the repaired source re-parses, re-checks,
// and stays race-free at a different input size.
func TestRepairedSourceRoundTrip(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			otherSize := b.RepairSize + b.RepairSize/2
			if b.Name == "Nqueens" || b.Name == "FannKuch" {
				otherSize = b.RepairSize + 1
			}
			src, err := bench.RepairedSource(b, otherSize)
			if err != nil {
				t.Fatal(err)
			}
			info, err := loadChecked(src)
			if err != nil {
				t.Fatalf("repaired source invalid: %v\n%s", err, src)
			}
			_, _, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
			if err != nil {
				t.Fatal(err)
			}
			if n := len(det.Races()); n != 0 {
				t.Errorf("%d races at size %d in replayed repair", n, otherSize)
			}
		})
	}
}

func loadChecked(src string) (*sem.Info, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return sem.Check(prog)
}

// TestSourcesPrintStably: printing a parsed benchmark and re-parsing it
// yields the same printed form (printer fixpoint).
func TestSourcesPrintStably(t *testing.T) {
	for _, b := range bench.All() {
		prog := parser.MustParse(b.Src(b.RepairSize))
		p1 := printer.Print(prog)
		prog2, err := parser.Parse(p1)
		if err != nil {
			t.Fatalf("%s: reparse: %v", b.Name, err)
		}
		p2 := printer.Print(prog2)
		if p1 != p2 {
			t.Errorf("%s: printer not a fixpoint", b.Name)
		}
	}
}
