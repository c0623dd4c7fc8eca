package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"finishrepair/internal/cpl"
	"finishrepair/internal/dpst"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// describe renders a tree with describeTo.
func describe(t *dpst.Tree) string {
	var sb strings.Builder
	describeTo(&sb, t)
	return sb.String()
}

var fixtures = []struct {
	name string
	src  string
}{
	{"fib", `
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
    async fib(r, 8);
    println(r[0]);
}`},
	{"loops", `
var g = 0;
func main() {
    var a = make([]int, 8);
    for (var i = 0; i < 8; i = i + 1) {
        async { a[i] = i * i; }
        g = g + 1;
    }
    var j = 0;
    while (j < 4) {
        g = g + a[j];
        j = j + 1;
    }
    println(g);
}`},
	{"finish", `
var g = 0;
func main() {
    finish {
        async { g = 1; }
        async { g = 2; }
    }
    g = g + 1;
    if (g > 2) { println(g); } else { println(0); }
}`},
}

func capture(t *testing.T, src string) (*sem.Info, *interp.Result, *trace.Trace) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := captureRun(info, 0)
	if err != nil {
		t.Fatal(err)
	}
	return info, res, tr
}

// raceProfile is the injection-equivalence identity: the multiset of
// (location, kind) pairs, which is invariant under renumbering of
// blocks and nodes between a rewritten source and an injected replay.
func raceProfile(races []*race.Race) string {
	counts := map[string]int{}
	for _, r := range races {
		counts[fmt.Sprintf("%d/%s", r.Loc, r.Kind)]++
	}
	var out []string
	for k, v := range counts {
		out = append(out, fmt.Sprintf("%s x%d", k, v))
	}
	sortStrings(out)
	return strings.Join(out, ", ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func analyze(t *testing.T, src string) (*sem.Info, []*race.Race, cpl.Metrics) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, tree, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	return info, det.Races(), cpl.Analyze(tree)
}

// Injected virtual finishes must be observationally equivalent to
// re-executing the source with real finish statements: same race
// profile, same work, same span, same finish count.
func TestVirtualFinishInjection(t *testing.T) {
	cases := []struct {
		name     string
		stripped string // capture source
		finished string // reference source with real finishes
		// ranges picks virtual scopes in the stripped program: fn name,
		// then Lo/Hi statement indices in that function's body block.
		ranges []struct {
			fn     string
			lo, hi int
		}
	}{
		{
			name: "wrap-asyncs",
			stripped: `
var g = 0;
func main() {
    async { g = 1; }
    async { g = 2; }
    g = 3;
    println(g);
}`,
			finished: `
var g = 0;
func main() {
    finish {
        async { g = 1; }
        async { g = 2; }
    }
    g = 3;
    println(g);
}`,
			ranges: []struct {
				fn     string
				lo, hi int
			}{{"main", 0, 1}},
		},
		{
			name: "nested",
			stripped: `
var g = 0;
var h = 0;
func main() {
    async { g = 1; }
    async { h = 1; }
    g = g + h;
    h = 2;
    println(g + h);
}`,
			finished: `
var g = 0;
var h = 0;
func main() {
    finish {
        finish {
            async { g = 1; }
        }
        async { h = 1; }
        g = g + h;
    }
    h = 2;
    println(g + h);
}`,
			ranges: []struct {
				fn     string
				lo, hi int
			}{{"main", 0, 2}, {"main", 0, 0}},
		},
	}
	for _, c := range cases {
		// Reference: real finishes, re-executed.
		_, wantRaces, wantM := analyze(t, c.finished)

		// Capture the stripped program once; replay with injection.
		info, _, tr := capture(t, c.stripped)
		var fins []trace.FinishRange
		for _, r := range c.ranges {
			blk := info.Prog.Func(r.fn).Body
			fins = append(fins, trace.FinishRange{BlockID: blk.ID, Lo: r.lo, Hi: r.hi})
		}
		det := race.New(race.VariantMRW, race.NewBagsOracle())
		rr, err := race.Analyze(tr, info.Prog, fins, det, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gotM := cpl.Analyze(rr.Tree)

		if got, want := raceProfile(det.Races()), raceProfile(wantRaces); got != want {
			t.Errorf("%s: races after injection = [%s], re-execution = [%s]", c.name, got, want)
		}
		if gotM.Work != wantM.Work || gotM.Span != wantM.Span {
			t.Errorf("%s: work/span after injection = %d/%d, re-execution = %d/%d",
				c.name, gotM.Work, gotM.Span, wantM.Work, wantM.Span)
		}
		finishes := 0
		rr.Tree.Walk(func(n *dpst.Node) {
			if n.Kind == dpst.Finish {
				finishes++
			}
		})
		if want := len(c.ranges) + 1; finishes != want { // +1 for the root
			t.Errorf("%s: %d finish nodes after injection, want %d", c.name, finishes, want)
		}
	}
}

// A virtual range covering statements that never execute (dead code
// after a return) must behave like a finish statement that never runs.
func TestVirtualFinishDeadCode(t *testing.T) {
	src := `
var g = 0;
func f() {
    g = 1;
    return;
    async { g = 2; }
}
func main() {
    f();
    println(g);
}`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := captureRun(info, 0)
	if err != nil {
		t.Fatal(err)
	}
	blk := info.Prog.Func("f").Body
	rr, err := trace.Replay(tr, trace.ReplayOptions{
		Prog:     info.Prog,
		Finishes: []trace.FinishRange{{BlockID: blk.ID, Lo: 2, Hi: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr.Tree.Walk(func(n *dpst.Node) {
		if n.Kind == dpst.Finish && n.Parent != nil {
			t.Errorf("dead-code range materialized finish node %d", n.ID)
		}
	})
}

// ast.StripFinishes must be the left inverse of injection on the event
// stream: capturing a finished program and capturing its stripped
// version yield the same accesses and work (finishes are free).
func TestFinishStatementsAreFreeInTrace(t *testing.T) {
	for _, f := range fixtures {
		_, res1, _ := capture(t, f.src)
		prog, _ := parser.Parse(f.src)
		ast.StripFinishes(prog)
		sinfo, err := sem.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		res2, _, err := captureRun(sinfo, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res1.Work != res2.Work {
			t.Errorf("%s: work %d with finishes, %d stripped", f.name, res1.Work, res2.Work)
		}
		if res1.Output != res2.Output {
			t.Errorf("%s: output changed after stripping", f.name)
		}
	}
}
