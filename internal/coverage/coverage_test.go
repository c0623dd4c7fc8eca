package coverage_test

import (
	"os"
	"strings"
	"testing"

	"finishrepair/internal/coverage"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
)

func measure(t *testing.T, src string) coverage.Coverage {
	t.Helper()
	info := sem.MustCheck(parser.MustParse(src))
	c, err := coverage.Measure(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFullCoverage(t *testing.T) {
	c := measure(t, `
func main() {
    finish { async { println(1); } }
}
`)
	if !c.Adequate() || c.AsyncCoverage() != 1 || c.Asyncs != 1 || c.Finishes != 1 {
		t.Errorf("got %v", c)
	}
}

func TestDeadBranchReducesCoverage(t *testing.T) {
	c := measure(t, `
func unused(k int) { async { println(k); } }
func main() {
    var n = 1;
    if (n > 5) {
        async { println(n); }
    }
    println(n);
}
`)
	if c.Adequate() {
		t.Errorf("expected inadequate coverage, got %v", c)
	}
	if c.Asyncs != 2 || c.AsyncsRun != 0 {
		t.Errorf("async coverage %d/%d, want 0/2", c.AsyncsRun, c.Asyncs)
	}
	if c.FuncsRun >= c.Funcs {
		t.Errorf("unused function counted as run: %v", c)
	}
	if c.StmtCoverage() >= 1 {
		t.Error("statement coverage should be < 1 with a dead branch")
	}
	if !strings.Contains(c.String(), "asyncs 0/2") {
		t.Errorf("String() = %q", c.String())
	}
}

// Statements inside isolated bodies, nested ones included, count toward
// the totals and are covered when they run.
func TestIsolatedBodiesCovered(t *testing.T) {
	src, err := os.ReadFile("../../testdata/vet/redundant_isolated.hj")
	if err != nil {
		t.Fatal(err)
	}
	c := measure(t, string(src))
	if c.Stmts != 12 || c.StmtsRun != 12 {
		t.Errorf("statements %d/%d, want 12/12: %v", c.StmtsRun, c.Stmts, c)
	}
	if c.Asyncs != 2 || c.AsyncsRun != 2 || c.Finishes != 1 || c.FinishesRun != 1 {
		t.Errorf("got %v", c)
	}
}

func TestLoopBodiesCovered(t *testing.T) {
	c := measure(t, `
func main() {
    var s = 0;
    for (var i = 0; i < 3; i = i + 1) { s = s + i; }
    println(s);
}
`)
	if c.StmtsRun != c.Stmts {
		t.Errorf("loop statements not fully covered: %v", c)
	}
}
