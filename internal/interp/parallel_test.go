package interp_test

import (
	"testing"

	"finishrepair/internal/adversary"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/repair"
	"finishrepair/taskpar"
)

func TestMatchesSequentialOnSynchronizedPrograms(t *testing.T) {
	// Repair random programs first so they are race-free, then check the
	// parallel run agrees with the elision on both executors.
	pool := taskpar.NewPoolExecutor(3)
	defer pool.Shutdown()
	for seed := int64(600); seed < 615; seed++ {
		prog := parser.MustParse(progen.Gen(seed, progen.Default()))
		ast.StripFinishes(prog)
		rep, err := repair.Repair(prog, repair.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		info := sem.MustCheck(prog)
		for _, exec := range []*taskpar.Executor{nil, pool} {
			res, err := interp.RunParallel(info, interp.ParallelOptions{Executor: exec})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.Output != rep.Output {
				t.Fatalf("seed %d: parallel %q != sequential %q", seed, res.Output, rep.Output)
			}
		}
	}
}

// TestRuntimeErrorsPropagate runs each faulting program free-running,
// controlled (under the depth-first schedule), depth-first and elided;
// every run must fail with the same full error text, position included.
func TestRuntimeErrorsPropagate(t *testing.T) {
	cases := []struct{ src, want string }{
		{`func main() { finish { async { var a = make([]int, 1); a[5] = 1; } } }`,
			"runtime error: index 5 out of range [0,1) at 1:56"},
		{`func main() { var x = 1 / 0; println(x); }`,
			"runtime error: integer division by zero at 1:25"},
		{`func main() { var z = 0; var x = 7 % z; println(x); }`,
			"runtime error: integer modulo by zero at 1:36"},
		{"var g = 4;\nfunc main() { finish { async { g /= 0; } } }",
			"runtime error: integer division by zero"},
		{`func main() { var a []int; a[0] = 1; }`,
			"runtime error: index of nil array at 1:28"},
		{`func main() { var a []int; println(len(a)); }`,
			"runtime error: len of nil array at 1:36"},
		{`func main() { var n = 0 - 2; async { var a = make([]int, n); println(len(a)); } }`,
			"runtime error: make with negative length -2 at 1:46"},
		{"var s int = 70;\nfunc main() { var x int = 1; println(x << s); }",
			"runtime error: shift count 70 out of range at 2:40"},
		{"var s int = -1;\nfunc main() { var x int = 1; println(x >> s); }",
			"runtime error: shift count -1 out of range at 2:40"},
	}
	for _, c := range cases {
		info := sem.MustCheck(parser.MustParse(c.src))
		errs := map[string]error{}
		_, errs["free-running"] = interp.RunParallel(info, interp.ParallelOptions{})
		out, err := adversary.Run(info, adversary.Schedule{Policy: adversary.DepthFirst}, adversary.RunOptions{})
		if err != nil {
			t.Fatalf("%s: controlled run: %v", c.src, err)
		}
		errs["controlled"] = out.Err
		_, errs["depth-first"] = interp.Run(info, interp.Options{Mode: interp.DepthFirst})
		_, errs["elided"] = interp.Run(info, interp.Options{Mode: interp.Elide})
		for mode, err := range errs {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: %s err = %v, want %q", c.src, mode, err, c.want)
			}
		}
	}
}

func TestBuiltinsMatchSequential(t *testing.T) {
	src := `
func main() {
    var a = make([]float, 3);
    a[0] = sqrt(2.0) + pow(2.0, 0.5) + sin(1.0) * cos(1.0);
    a[1] = exp(1.0) + log(2.718281828459045) + floor(9.7);
    a[2] = abs(-1.5) + float(abs(-3)) + float(int(2.9));
    println(int(a[0] * 1000000.0), int(a[1] * 1000000.0), int(a[2] * 1000000.0), len(a));
    print("x", 1, true);
}
`
	prog := parser.MustParse(src)
	info := sem.MustCheck(prog)
	seqRes, err := interp.Run(info, interp.Options{Mode: interp.Elide})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := interp.RunParallel(info, interp.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Output != parRes.Output {
		t.Errorf("parallel %q != sequential %q", parRes.Output, seqRes.Output)
	}
}

func TestGlobalsWork(t *testing.T) {
	src := `
var total = make([]int, 4);
var scale = 3;
func main() {
    finish {
        async { total[0] = 1 * scale; }
        async { total[1] = 2 * scale; }
        async { total[2] = 3 * scale; }
    }
    println(total[0] + total[1] + total[2]);
}
`
	prog := parser.MustParse(src)
	info := sem.MustCheck(prog)
	res, err := interp.RunParallel(info, interp.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "18\n" {
		t.Errorf("got %q, want 18", res.Output)
	}
}
