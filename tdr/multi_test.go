package tdr_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"finishrepair/tdr"
)

// sizedSrc renders a program whose second race only manifests for large
// inputs: the conditional async never runs when n <= 4, so a small test
// input cannot drive its repair.
func sizedSrc(n int) string {
	return fmt.Sprintf(`
func main() {
    var n = %d;
    var a = make([]int, 8);
    if (n > 4) {
        async { a[0] = n; }
    }
    async { a[1] = 2; }
    println(a[0] + a[1]);
}
`, n)
}

func TestCoverageFlagsInadequateInput(t *testing.T) {
	small, err := tdr.Load(sizedSrc(2))
	if err != nil {
		t.Fatal(err)
	}
	cov, err := small.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	if cov.Adequate() {
		t.Errorf("small input should be inadequate (async unexecuted): %v", cov)
	}
	if cov.Asyncs != 2 || cov.AsyncsRun != 1 {
		t.Errorf("async coverage = %d/%d, want 1/2", cov.AsyncsRun, cov.Asyncs)
	}

	big, err := tdr.Load(sizedSrc(8))
	if err != nil {
		t.Fatal(err)
	}
	cov, err = big.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Adequate() {
		t.Errorf("large input should be adequate: %v", cov)
	}
}

func TestCoverageFullOnBenchStyleProgram(t *testing.T) {
	p, err := tdr.Load(`
func work(a []int, i int) { a[i] = i; }
func main() {
    var a = make([]int, 4);
    finish {
        for (var i = 0; i < 4; i = i + 1) {
            async work(a, i);
        }
    }
    println(a[0] + a[1] + a[2] + a[3]);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := p.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Adequate() || cov.FuncsRun != cov.Funcs || cov.StmtsRun != cov.Stmts {
		t.Errorf("expected full coverage, got %v", cov)
	}
}

// RepairAcross: repairing only on the small input leaves the big input
// racy; iterating over both inputs fixes everything.
func TestRepairAcrossInputs(t *testing.T) {
	// Single small input: the conditional async's race is invisible.
	smallOnly, err := tdr.Load(sizedSrc(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smallOnly.Repair(tdr.RepairOptions{}); err != nil {
		t.Fatal(err)
	}
	// Render the same placements onto the big input by reusing the
	// multi-input API with just the small source, then checking the big
	// rendering still races.
	repairedSrc, _, err := tdr.RepairAcross([]string{sizedSrc(2), sizedSrc(8)}, tdr.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tdr.Load(repairedSrc)
	if err != nil {
		t.Fatalf("combined repair invalid: %v\n%s", err, repairedSrc)
	}
	det, err := p.Detect(tdr.MRW)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Races) != 0 {
		t.Errorf("%d races remain on the large input\n%s", len(det.Races), repairedSrc)
	}
	if !strings.Contains(repairedSrc, "finish") {
		t.Error("no finishes in combined repair")
	}
	// Semantics: repaired big input equals its elision.
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.RunParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par || seq != "10\n" {
		t.Errorf("seq %q par %q, want 10", seq, par)
	}
}

func TestRepairAcrossRejectsEmpty(t *testing.T) {
	if _, _, err := tdr.RepairAcross(nil, tdr.RepairOptions{}); err == nil {
		t.Error("expected error for empty input list")
	}
}

// RepairAcross runs the same repair loop as Repair: over one input it
// prints the program Repair prints under the same detector, engine,
// workers and strategy (counter.hj's race repairs with isolated under
// Auto, with a finish under Finish).
func TestRepairAcrossMatchesRepair(t *testing.T) {
	src, err := os.ReadFile("../examples/hj/counter.hj")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []tdr.RepairOptions{
		{Strategy: tdr.Auto},
		{Strategy: tdr.Finish},
		{Strategy: tdr.Auto, Engine: tdr.Both, Workers: 2},
		{Strategy: tdr.Isolated, Detector: tdr.SRW},
	} {
		p, err := tdr.Load(string(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Repair(opts); err != nil {
			t.Fatal(err)
		}
		across, _, err := tdr.RepairAcross([]string{string(src)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := p.Source(); across != want {
			t.Errorf("%+v: RepairAcross printed\n%s\nRepair printed\n%s", opts, across, want)
		}
	}
}
