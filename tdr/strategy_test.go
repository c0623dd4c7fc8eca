package tdr_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finishrepair/tdr"
)

// reductionSrc squares elements in parallel and accumulates into a
// shared sum: the commutative-update shape where isolated wrapping
// preserves output and keeps the asyncs parallel.
const reductionSrc = `
var sum = 0;

func main() {
    var a = make([]int, 8);
    for (var i = 0; i < 8; i = i + 1) { a[i] = i + 1; }
    finish {
        for (var i = 0; i < 8; i = i + 1) {
            async {
                var t = a[i] * a[i];
                sum = sum + t;
            }
        }
    }
    println(sum);
}
`

func TestTdrParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want tdr.Strategy
		ok   bool
	}{
		{"finish", tdr.Finish, true},
		{"isolated", tdr.Isolated, true},
		{"auto", tdr.Auto, true},
		{"nope", tdr.Finish, false},
	}
	for _, c := range cases {
		got, ok := tdr.ParseStrategy(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestRepairRejectsUnknownStrategy checks that a Strategy outside
// finish, isolated and auto fails the repair, naming the value, and
// leaves the program unchanged.
func TestRepairRejectsUnknownStrategy(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "examples", "hj", "sumsq.hj"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []tdr.Strategy{7, -1} {
		p := mustLoad(t, string(src))
		before := p.Source()
		_, err := p.Repair(tdr.RepairOptions{Strategy: s})
		if want := fmt.Sprintf("unknown strategy %d", s); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Strategy %d: error %v, want one containing %q", s, err, want)
		}
		if p.Source() != before {
			t.Errorf("Strategy %d changed the program:\n%s", s, p.Source())
		}
	}
}

// The acceptance path: -strategy auto selects isolated on the
// reduction, the repaired program survives K=16 adversarial schedules
// with byte-identical output, and the choice lands in the explain
// record with a strictly lower critical path than finish.
func TestRepairStrategyAutoIsolatedAdversaryVerified(t *testing.T) {
	pAuto := mustLoad(t, reductionSrc)
	repAuto, err := pAuto.Repair(tdr.RepairOptions{
		Strategy:           tdr.Auto,
		Explain:            true,
		AdversarySchedules: 16,
		SchedSeed:          1,
	})
	if err != nil {
		t.Fatalf("Repair(auto): %v", err)
	}
	if repAuto.IsolatedInserted == 0 {
		t.Fatalf("auto inserted no isolated:\n%s", pAuto.Source())
	}
	if repAuto.Adversary == nil || repAuto.Adversary.Schedules != 16 {
		t.Fatalf("adversary verification did not run with K=16: %+v", repAuto.Adversary)
	}
	if repAuto.Adversary.Failures != 0 {
		t.Fatalf("isolated repair diverged under adversarial schedules: %+v", repAuto.Adversary.First)
	}
	serial, err := pAuto.RunSequential()
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if repAuto.Output != serial {
		t.Fatalf("repaired output %q != serial oracle %q", repAuto.Output, serial)
	}
	if !strings.Contains(pAuto.Source(), "isolated {") {
		t.Errorf("repaired source lacks isolated:\n%s", pAuto.Source())
	}

	pFin := mustLoad(t, reductionSrc)
	repFin, err := pFin.Repair(tdr.RepairOptions{Explain: true})
	if err != nil {
		t.Fatalf("Repair(finish): %v", err)
	}
	if repFin.IsolatedInserted != 0 {
		t.Errorf("finish strategy inserted %d isolated", repFin.IsolatedInserted)
	}
	if repAuto.Output != repFin.Output {
		t.Errorf("strategies disagree on output: auto %q finish %q", repAuto.Output, repFin.Output)
	}
	if repAuto.Explain.CPLAfter.Span >= repFin.Explain.CPLAfter.Span {
		t.Errorf("auto span %d, want < finish span %d",
			repAuto.Explain.CPLAfter.Span, repFin.Explain.CPLAfter.Span)
	}
	found := false
	for _, f := range repAuto.Explain.Finishes {
		for _, g := range repAuto.Explain.GroupsOf(f) {
			if g.Strategy == "isolated" && f.Finish.Kind == "isolated" && g.StrategyWhy != "" {
				found = true
			}
		}
	}
	if !found {
		t.Error("explain record carries no isolated strategy choice")
	}
}

// TestExamplesStrategyAutoSweep is the acceptance sweep over the
// bundled examples: repairing every examples/hj program with -strategy
// auto must keep the output byte-identical to the serial oracle under
// K=16 adversarial schedules, and on at least two of the bundled
// reduction/counter benchmarks auto must choose isolated with a
// strictly lower post-repair critical path than the finish strategy.
func TestExamplesStrategyAutoSweep(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "examples", "hj", "*.hj"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	isolatedWins := 0
	for _, m := range matches {
		src, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(m), ".hj")
		t.Run(name, func(t *testing.T) {
			pAuto := mustLoad(t, string(src))
			repAuto, err := pAuto.Repair(tdr.RepairOptions{
				Strategy:           tdr.Auto,
				Explain:            true,
				AdversarySchedules: 16,
				SchedSeed:          1,
			})
			if err != nil {
				t.Fatalf("Repair(auto) on %s: %v", name, err)
			}
			if repAuto.Adversary == nil || repAuto.Adversary.Schedules != 16 {
				t.Fatalf("adversary verification did not run with K=16: %+v", repAuto.Adversary)
			}
			if repAuto.Adversary.Failures != 0 {
				t.Fatalf("auto repair of %s diverged under adversarial schedules: %+v",
					name, repAuto.Adversary.First)
			}
			serial, err := mustLoad(t, string(src)).RunSequential()
			if err != nil {
				t.Fatalf("RunSequential: %v", err)
			}
			if repAuto.Output != serial {
				t.Fatalf("auto output %q != serial oracle %q", repAuto.Output, serial)
			}
			if repAuto.IsolatedInserted == 0 {
				return
			}
			repFin, err := mustLoad(t, string(src)).Repair(tdr.RepairOptions{
				Strategy: tdr.Finish,
				Explain:  true,
			})
			if err != nil {
				t.Fatalf("Repair(finish) on %s: %v", name, err)
			}
			if repFin.Output != repAuto.Output {
				t.Fatalf("strategies disagree on output: auto %q finish %q", repAuto.Output, repFin.Output)
			}
			if repAuto.Explain.CPLAfter.Span < repFin.Explain.CPLAfter.Span {
				isolatedWins++
			}
		})
	}
	if isolatedWins < 2 {
		t.Errorf("auto chose isolated with a strictly lower critical path on %d examples, want >= 2",
			isolatedWins)
	}
}
