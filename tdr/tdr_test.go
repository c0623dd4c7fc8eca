package tdr_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finishrepair/internal/obs"
	"finishrepair/tdr"
)

const buggy = `
func fib(ret []int, n int) {
    if (n < 2) { ret[0] = n; return; }
    var x = make([]int, 1);
    var y = make([]int, 1);
    async fib(x, n - 1);
    async fib(y, n - 2);
    ret[0] = x[0] + y[0];
}
func main() {
    var r = make([]int, 1);
    async fib(r, 10);
    println(r[0]);
}
`

func TestLoadRejectsInvalid(t *testing.T) {
	for _, src := range []string{
		"not a program",
		"func main() { undefined(); }",
		"func f() {}", // no main
	} {
		if _, err := tdr.Load(src); err == nil {
			t.Errorf("Load(%q) succeeded, want error", src)
		}
	}
}

func TestEndToEnd(t *testing.T) {
	p, err := tdr.Load(buggy)
	if err != nil {
		t.Fatal(err)
	}
	det, err := p.Detect(tdr.MRW)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Races) == 0 {
		t.Fatal("no races detected in buggy program")
	}
	if det.Races[0].SrcPos == "" || det.Races[0].DstPos == "" {
		t.Error("race positions missing")
	}

	rep, err := p.Repair(tdr.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinishesInserted != 2 || rep.Output != "55\n" {
		t.Errorf("repair: inserted=%d output=%q", rep.FinishesInserted, rep.Output)
	}
	if p.CountFinishes() != 2 {
		t.Errorf("CountFinishes = %d, want 2", p.CountFinishes())
	}
	if !strings.Contains(p.Source(), "finish {") {
		t.Error("repaired source lacks finish")
	}

	confirm, err := p.Detect(tdr.SRW)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirm.Races) != 0 {
		t.Errorf("%d races after repair", len(confirm.Races))
	}

	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.RunParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != "55\n" || par != "55\n" {
		t.Errorf("seq=%q par=%q, want 55", seq, par)
	}

	pl, err := p.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if pl.Work <= 0 || pl.Span <= 0 || pl.Ratio() < 1 {
		t.Errorf("bad parallelism metrics %+v", pl)
	}
}

// TestRepairChecksOnce checks that a loaded program is checked once:
// a traced Load, then a repair with the static pass and adversarial
// verification, records one sem-check span, Load's.
func TestRepairChecksOnce(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "testdata", "buggy_fib.hj"))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	p, err := tdr.LoadTraced(string(src), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Repair(tdr.RepairOptions{Vet: true, AdversarySchedules: 4}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range tr.Records() {
		if r.Name == "sem-check" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d sem-check spans, want 1", n)
	}
}

func TestStripFinishes(t *testing.T) {
	p, err := tdr.Load(`func main() { finish { async { println(1); } } }`)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.StripFinishes(); n != 1 {
		t.Errorf("stripped %d, want 1", n)
	}
	if p.CountFinishes() != 0 {
		t.Error("finishes remain")
	}
	det, err := p.Detect(tdr.MRW)
	if err != nil {
		t.Fatal(err)
	}
	// println in the async vs nothing else: no shared state -> 0 races.
	_ = det
}

func TestParallelismZeroSpan(t *testing.T) {
	var pl tdr.Parallelism
	if pl.Ratio() != 1 {
		t.Error("zero-span ratio should be 1")
	}
}
