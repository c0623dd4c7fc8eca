package repair_test

import (
	"strings"
	"testing"

	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/repair"
)

// A parallel sum reduction: each async squares its own element (honest
// parallel work) and then bumps the shared accumulator. Finish repair
// must serialize whole asyncs; isolated wrapping serializes only the
// commutative increment, so auto should pick isolated and end with a
// strictly shorter critical path.
const isoReductionSrc = `
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

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want repair.Strategy
		ok   bool
	}{
		{"finish", repair.StrategyFinish, true},
		{"isolated", repair.StrategyIsolated, true},
		{"iso", repair.StrategyIsolated, true},
		{"auto", repair.StrategyAuto, true},
		{"bogus", repair.StrategyFinish, false},
	}
	for _, c := range cases {
		got, ok := repair.ParseStrategy(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestRepairStrategyAutoPicksIsolated(t *testing.T) {
	var exFin, exAuto provenance.Explain
	finProg, _ := repairAndVerify(t, isoReductionSrc, repair.Options{Explain: &exFin})
	autoProg, _ := repairAndVerify(t, isoReductionSrc, repair.Options{Strategy: repair.StrategyAuto, Explain: &exAuto})
	exFin.Finalize()
	exAuto.Finalize()

	if src := printer.Print(autoProg); !strings.Contains(src, "isolated") {
		t.Fatalf("auto strategy inserted no isolated:\n%s", src)
	}
	if src := printer.Print(finProg); strings.Contains(src, "isolated") {
		t.Fatalf("finish strategy inserted an isolated:\n%s", src)
	}
	if exAuto.CPLAfter.Span >= exFin.CPLAfter.Span {
		t.Errorf("auto post-repair span %d, want < finish's %d",
			exAuto.CPLAfter.Span, exFin.CPLAfter.Span)
	}
	chosen := ""
	for _, it := range exAuto.Iterations {
		for _, g := range it.Groups {
			if g.Strategy != "" {
				chosen = g.Strategy
				if g.Strategy == "isolated" && g.IsolatedSpan >= g.FinishSpan {
					t.Errorf("chose isolated with span %d >= finish span %d (why: %s)",
						g.IsolatedSpan, g.FinishSpan, g.StrategyWhy)
				}
			}
		}
	}
	if chosen != "isolated" {
		t.Errorf("recorded strategy choice = %q, want isolated", chosen)
	}
}

// Forcing the isolated strategy must still only use it where it
// eliminates the group's races and is commutative; the repaired program
// stays race-free and output-identical either way.
func TestRepairStrategyIsolatedForced(t *testing.T) {
	prog, _ := repairAndVerify(t, isoReductionSrc, repair.Options{Strategy: repair.StrategyIsolated})
	if src := printer.Print(prog); !strings.Contains(src, "isolated") {
		t.Fatalf("isolated strategy inserted no isolated:\n%s", src)
	}
}

// A race on a non-commutative update (overwrite, not a reduction) must
// fall back to finish even under -strategy isolated/auto.
const overwriteSrc = `
var last = 0;

func main() {
    finish {
        async { last = 1; }
        async { last = 2; }
    }
    println(last);
}
`

func TestRepairStrategyFallsBackOnNonCommutative(t *testing.T) {
	for _, s := range []repair.Strategy{repair.StrategyIsolated, repair.StrategyAuto} {
		var ex provenance.Explain
		prog, _ := repairAndVerify(t, overwriteSrc, repair.Options{Strategy: s, Explain: &ex})
		if src := printer.Print(prog); strings.Contains(src, "isolated") {
			t.Fatalf("strategy %v wrapped a non-commutative update in isolated:\n%s", s, src)
		}
		found := false
		for _, it := range ex.Iterations {
			for _, g := range it.Groups {
				if g.Strategy == "finish" && strings.Contains(g.StrategyWhy, "infeasible") {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("strategy %v: no group recorded an infeasibility reason", s)
		}
	}
}

// A race whose access sits inside a source-level isolated body must not
// get an isolated candidate: the wrapping would nest one isolated inside
// another (hjvet's redundant-isolated) and still leave the race with the
// unsynchronized write, so the group takes the finish repair in one
// round and records why.
func TestRepairStrategyRejectsSitesInSourceIsolated(t *testing.T) {
	const src = `var x = 0; func main() { async { isolated { x = x + 1; } } x = x + 2; println(x); }`
	const want = `var x int = 0;

func main() {
    finish { // inserted by repair tool
        async {
            isolated {
                x = x + 1;
            }
        }
    }
    x = x + 2;
    println(x);
}
`
	var ex provenance.Explain
	prog, rep := repairAndVerify(t, src, repair.Options{Strategy: repair.StrategyAuto, Explain: &ex})
	if got := printer.Print(prog); got != want {
		t.Errorf("repaired source:\n%s\nwant:\n%s", got, want)
	}
	if len(rep.Iterations) != 2 || rep.Inserted != 1 {
		t.Errorf("%d iterations, %d inserted; want 2 and 1", len(rep.Iterations), rep.Inserted)
	}
	found := false
	for _, it := range ex.Iterations {
		for _, g := range it.Groups {
			if g.StrategyWhy == "isolated infeasible: access site lies inside a source-level isolated body" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no group recorded the source-level isolated reason")
	}
}

// The mixed-counter soundness regression: each statement is a
// recognized additive reduction of its own location, but sum's operand
// READS cnt, so the pair's execution orders disagree and isolating both
// (mutual exclusion without commutativity) would change the output. The
// semantic probe must refute the cross-location pair and force the
// finish fallback.
const mixedCounterSrc = `
var cnt = 0;
var sum = 0;

func main() {
    finish {
        for (var i = 0; i < 4; i = i + 1) {
            async { cnt = cnt + 1; }
            async { sum = sum + cnt; }
        }
    }
    println(cnt);
    println(sum);
}
`

func TestRepairStrategyRefutesMixedCounterPair(t *testing.T) {
	for _, s := range []repair.Strategy{repair.StrategyIsolated, repair.StrategyAuto} {
		var ex provenance.Explain
		prog, _ := repairAndVerify(t, mixedCounterSrc, repair.Options{Strategy: s, Explain: &ex})
		if src := printer.Print(prog); strings.Contains(src, "isolated") {
			t.Fatalf("strategy %v isolated an order-dependent cross-location pair:\n%s", s, src)
		}
		refuted := false
		for _, it := range ex.Iterations {
			for _, g := range it.Groups {
				if strings.Contains(g.StrategyWhy, "refuted") {
					refuted = true
				}
			}
		}
		if !refuted {
			t.Errorf("strategy %v: no group recorded the probe refutation", s)
		}
	}
}

// The finish strategy (the default) must behave exactly as before the
// strategy layer existed: Kind stays zero on every applied range.
func TestRepairStrategyFinishKindsZero(t *testing.T) {
	prog := parser.MustParse(isoReductionSrc)
	rep, err := repair.Repair(prog, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range rep.Iterations {
		for _, a := range it.Applied {
			if a.Kind != 0 {
				t.Errorf("finish strategy applied range with kind %v", a.Kind)
			}
		}
	}
	if n := ast.CountFinishes(prog); n == 0 {
		t.Error("no finishes inserted")
	}
}
