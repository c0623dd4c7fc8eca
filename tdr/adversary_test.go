package tdr_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/obs"
	"finishrepair/tdr"
)

// racyCounter is the canonical lost update: two unjoined increments.
const racyCounter = `
var count = 0;
func main() {
    async { count = count + 1; }
    async { count = count + 1; }
    println(count);
}
`

func mustLoad(t *testing.T, src string) *tdr.Program {
	t.Helper()
	p, err := tdr.Load(src)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return p
}

// TestRepairWitnessAndVerify is the adversary pipeline end to end: the
// racy counter's races are replayed to concrete witnesses on the
// original program, the repair passes the K-schedule verification, and
// everything lands in the explain record.
func TestRepairWitnessAndVerify(t *testing.T) {
	p := mustLoad(t, racyCounter)
	rep, err := p.Repair(tdr.RepairOptions{Witness: true, Vet: true, Explain: true, SchedSeed: 1})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rep.RacesFound == 0 {
		t.Fatal("no races found in the racy counter")
	}
	if len(rep.Witnesses) == 0 {
		t.Fatal("no witnesses: the counter races must replay to a concrete divergence")
	}
	for _, w := range rep.Witnesses {
		if w.Race == "" || w.Schedule == "" || w.Reason == "" {
			t.Errorf("incomplete witness: %+v", w)
		}
		if w.Actual == w.Expected && w.ActualState == w.ExpectedState {
			t.Errorf("witness shows no divergence: %+v", w)
		}
	}
	if rep.Adversary == nil {
		t.Fatal("no adversary report")
	}
	if rep.Adversary.Schedules != tdr.DefaultAdversarySchedules {
		t.Errorf("Schedules = %d, want %d", rep.Adversary.Schedules, tdr.DefaultAdversarySchedules)
	}
	if rep.Adversary.Failures != 0 {
		t.Errorf("repaired program failed %d adversarial schedules; first: %+v", rep.Adversary.Failures, rep.Adversary.First)
	}
	if rep.Explain == nil {
		t.Fatal("no explain record")
	}
	if len(rep.Explain.Witnesses) != len(rep.Witnesses) {
		t.Errorf("explain has %d witnesses, report has %d", len(rep.Explain.Witnesses), len(rep.Witnesses))
	}
	if rep.Explain.Adversary == nil || rep.Explain.Adversary.Schedules != rep.Adversary.Schedules {
		t.Errorf("explain adversary record missing or inconsistent: %+v", rep.Explain.Adversary)
	}
}

// TestAdversaryCatchesBadRepair: verification alone (no witness mode)
// flags a program that is still racy. We fake a "bad repair" by running
// the adversary stage on a program the repair loop has nothing to do
// to... instead, we verify the racy program directly through Stress and
// assert the typed error surfaces through Repair when the repaired
// program misbehaves is covered by the unit layer; here we check the
// options plumbing: AdversarySchedules alone enables the stage.
func TestAdversarySchedulesAloneEnablesVerify(t *testing.T) {
	p := mustLoad(t, racyCounter)
	rep, err := p.Repair(tdr.RepairOptions{AdversarySchedules: 8, SchedSeed: 2})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(rep.Witnesses) != 0 {
		t.Errorf("witness search ran without Witness: %d witnesses", len(rep.Witnesses))
	}
	if rep.Adversary == nil || rep.Adversary.Schedules != 8 {
		t.Fatalf("adversary verification did not run with K=8: %+v", rep.Adversary)
	}
	if rep.Adversary.Failures != 0 {
		t.Errorf("repaired counter failed verification: %+v", rep.Adversary.First)
	}
}

// TestAdversaryDeterminism (satellite: -sched-seed determinism): the
// witness, gap, and verify results are bit-identical across repeated
// runs and across analysis worker counts.
func TestAdversaryDeterminism(t *testing.T) {
	run := func(workers int) *tdr.RepairReport {
		p := mustLoad(t, racyCounter)
		rep, err := p.Repair(tdr.RepairOptions{
			Witness: true, Vet: true, SchedSeed: 7, Workers: workers,
		})
		if err != nil {
			t.Fatalf("Repair (workers=%d): %v", workers, err)
		}
		return rep
	}
	base := run(1)
	for _, workers := range []int{1, 8} {
		rep := run(workers)
		if !reflect.DeepEqual(rep.Witnesses, base.Witnesses) {
			t.Errorf("workers=%d: witnesses differ\n%+v\nvs\n%+v", workers, rep.Witnesses, base.Witnesses)
		}
		if !reflect.DeepEqual(rep.Adversary, base.Adversary) {
			t.Errorf("workers=%d: adversary reports differ\n%+v\nvs\n%+v", workers, rep.Adversary, base.Adversary)
		}
		if !reflect.DeepEqual(rep.GapVerdicts, base.GapVerdicts) {
			t.Errorf("workers=%d: gap verdicts differ\n%+v\nvs\n%+v", workers, rep.GapVerdicts, base.GapVerdicts)
		}
	}
}

// TestGapSearchUnexercised (satellite: CoverageGaps handoff): the
// bundled unexercised.hj example's gated writer is a coverage gap, and
// the schedule search proves it unreachable on this input — no
// interleaving of the bundled input ever executes the gated statement.
func TestGapSearchUnexercised(t *testing.T) {
	src, err := os.ReadFile("../examples/hj/unexercised.hj")
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	p := mustLoad(t, string(src))
	rep, rerr := p.Repair(tdr.RepairOptions{Witness: true, Vet: true, SchedSeed: 3})
	if rerr != nil {
		t.Fatalf("Repair: %v", rerr)
	}
	if len(rep.CoverageGaps) == 0 {
		t.Fatal("no coverage gaps for unexercised.hj")
	}
	if len(rep.GapVerdicts) != len(rep.CoverageGaps) {
		t.Fatalf("%d gap verdicts for %d gaps", len(rep.GapVerdicts), len(rep.CoverageGaps))
	}
	unreachable := 0
	for i, gv := range rep.GapVerdicts {
		if gv.Gap != rep.CoverageGaps[i].String() {
			t.Errorf("verdict %d is for %q, gap is %q", i, gv.Gap, rep.CoverageGaps[i].String())
		}
		if gv.Status == tdr.GapUnreachable {
			unreachable++
		}
		if gv.Status == tdr.GapWitnessed {
			t.Errorf("gap %q witnessed on the repaired program — repair unsound?", gv.Gap)
		}
	}
	if unreachable == 0 {
		t.Errorf("no gap proved unreachable; verdicts: %+v", rep.GapVerdicts)
	}
}

// TestStressRacyAndRepaired: hjrun -mode stress's engine. The racy
// counter diverges under adversarial schedules; its repaired form
// passes all of them.
func TestStressRacyAndRepaired(t *testing.T) {
	p := mustLoad(t, racyCounter)
	rep, err := p.Stress(context.Background(), tdr.StressOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Stress: %v", err)
	}
	if rep.Failures == 0 {
		t.Fatal("stress passed a racy program")
	}
	if rep.First == nil || rep.First.Schedule == "" {
		t.Fatalf("no replayable first divergence: %+v", rep.First)
	}
	if len(rep.Diverged) != rep.Failures {
		t.Errorf("%d diverged entries for %d failures", len(rep.Diverged), rep.Failures)
	}

	if _, err := p.Repair(tdr.RepairOptions{}); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	rep, err = p.Stress(context.Background(), tdr.StressOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Stress (repaired): %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("repaired program diverged under %d schedules; first: %+v", rep.Failures, rep.First)
	}
}

// TestStressBudget: schedule yields charge the op budget and the trip
// surfaces as a typed budget error.
func TestStressBudget(t *testing.T) {
	p := mustLoad(t, racyCounter)
	_, err := p.Stress(context.Background(), tdr.StressOptions{Seed: 1, Budget: tdr.Budget{OpLimit: 3}})
	if err == nil || !tdr.IsBudgetOrCanceled(err) {
		t.Fatalf("err = %v, want a budget trip", err)
	}
}

// TestBenchWitnessAndVerify is the acceptance sweep: strip the finishes
// from every bundled benchmark at its repair size, repair, and require
// that (a) every static race of the explain record was replayed to a
// concrete witness, one witness per static race, and (b) the repaired
// program survives the full K=16 adversarial verification against the
// serial oracle.
func TestBenchWitnessAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial sweep is slow")
	}
	// Static races per finish-stripped program at repair size.
	classes := map[string]int{
		"Fibonacci": 4, "Quicksort": 1, "Mergesort": 4, "Spanning Tree": 6,
		"Nqueens": 2, "Series": 1, "SOR": 3, "Crypt": 3, "Sparse": 3,
		"LUFact": 5, "FannKuch": 1, "Mandelbrot": 1,
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := mustLoad(t, b.Src(b.RepairSize))
			p.StripFinishes()
			rep, err := p.Repair(tdr.RepairOptions{Witness: true, Explain: true, SchedSeed: 1})
			if err != nil {
				var ae *tdr.AdversaryError
				if errors.As(err, &ae) {
					t.Fatalf("repaired %s diverged under adversarial schedules: %v", b.Name, ae)
				}
				t.Fatalf("Repair: %v", err)
			}
			if rep.Adversary == nil {
				t.Fatal("no adversary report")
			}
			if rep.Adversary.Failures != 0 {
				t.Fatalf("%d/%d adversarial schedules diverged; first: %+v",
					rep.Adversary.Failures, rep.Adversary.Schedules, rep.Adversary.First)
			}
			static := make(map[string]bool)
			for _, it := range rep.Explain.Iterations {
				for _, g := range it.Groups {
					for _, c := range g.Classes {
						static[fmt.Sprintf("%s %s vs %s", c.Kind, orUnknown(c.First.Pos), orUnknown(c.Second.Pos))] = true
					}
				}
			}
			if len(static) != classes[b.Name] {
				t.Errorf("%d static races in the explain record, want %d", len(static), classes[b.Name])
			}
			witnessed, races := make(map[string]bool), 0
			for _, w := range rep.Witnesses {
				if witnessed[w.Race] {
					t.Errorf("static race %s witnessed twice", w.Race)
				}
				witnessed[w.Race] = true
				races += w.Races
			}
			for c := range static {
				if !witnessed[c] {
					t.Errorf("static race %s has no witness", c)
				}
			}
			if len(rep.Witnesses) != len(static) || races != rep.RacesFound {
				t.Errorf("%d witnesses for %d races, want %d (one per static race) for the %d races found",
					len(rep.Witnesses), races, len(static), rep.RacesFound)
			}
		})
	}
}

func orUnknown(pos string) string {
	if pos == "" {
		return "?"
	}
	return pos
}

// TestGapSearchVerdictsPinned pins the gap search's verdicts on four
// finish-stripped Table-1 programs at repair size, and bounds its
// schedule runs: each gap runs at most its two defer-pos schedules, and
// the random schedules run once for all gaps.
func TestGapSearchVerdictsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("gap search at repair size is slow")
	}
	want := map[string]map[string]int{
		"FannKuch":  {tdr.GapNoDivergence: 56},
		"Quicksort": {tdr.GapNoDivergence: 18},
		"LUFact":    {tdr.GapNoDivergence: 2, tdr.GapUnreachable: 12},
		"Nqueens":   {tdr.GapNoDivergence: 16, tdr.GapUnreachable: 5},
	}
	for _, b := range bench.All() {
		b, verdicts := b, want[b.Name]
		if verdicts == nil {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			tr := obs.New()
			p, err := tdr.LoadTraced(b.Src(b.RepairSize), tr)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			p.StripFinishes()
			rep, err := p.Repair(tdr.RepairOptions{Witness: true, Vet: true, SchedSeed: 1})
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			got := make(map[string]int)
			for _, gv := range rep.GapVerdicts {
				got[gv.Status]++
			}
			if !reflect.DeepEqual(got, verdicts) {
				t.Errorf("gap verdicts %v, want %v", got, verdicts)
			}
			spans := 0
			for _, r := range tr.Records() {
				if r.Name != "gap-search" {
					continue
				}
				spans++
				attrs := make(map[string]int64)
				for _, a := range r.Attrs {
					attrs[a.Key] = a.Int
				}
				gaps, runs := attrs["gaps"], attrs["schedules"]
				if gaps != int64(len(rep.GapVerdicts)) || runs < 1 || runs > 2*gaps+16 {
					t.Errorf("gap-search span: %d gaps, %d schedule runs; want %d gaps and 1 to 2*gaps+16 runs",
						gaps, runs, len(rep.GapVerdicts))
				}
			}
			if spans != 1 {
				t.Errorf("%d gap-search spans, want 1", spans)
			}
		})
	}
}

// TestAdversaryErrorRendering keeps the operator-facing message stable.
func TestAdversaryErrorRendering(t *testing.T) {
	e := &tdr.AdversaryError{Failures: 3, Schedules: 16, First: &tdr.Witness{Reason: "output differs", Schedule: "defer-write@loc1"}}
	msg := e.Error()
	for _, want := range []string{"3 of 16", "output differs", "defer-write@loc1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}
