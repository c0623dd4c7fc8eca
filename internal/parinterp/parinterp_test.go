package parinterp_test

import (
	"strings"
	"testing"

	"finishrepair/internal/adversary"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/parinterp"
	"finishrepair/internal/progen"
	"finishrepair/internal/repair"
	"finishrepair/taskpar"
)

func TestMatchesSequentialOnSynchronizedPrograms(t *testing.T) {
	// Repair random programs first so they are race-free, then check the
	// parallel interpreter agrees with the elision on both executors.
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
			res, err := parinterp.Run(info, parinterp.Options{Executor: exec})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.Output != rep.Output {
				t.Fatalf("seed %d: parallel %q != sequential %q", seed, res.Output, rep.Output)
			}
		}
	}
}

// TestRuntimeErrorsPropagate runs each faulting program free-running
// and in controlled mode (under the depth-first schedule); both must
// fail with the expected error. A shift count outside [0, 63] must fail
// exactly as the sequential interpreter does, position included.
func TestRuntimeErrorsPropagate(t *testing.T) {
	cases := []struct{ src, want string }{
		{`func main() { finish { async { var a = make([]int, 1); a[5] = 1; } } }`, "out of range"},
		{`func main() { var x = 1 / 0; println(x); }`, "division by zero"},
		{`func main() { var a []int; a[0] = 1; }`, "out of range"},
		{"var s int = 70;\nfunc main() { var x int = 1; println(x << s); }", "runtime error: shift count 70 out of range at 2:40"},
		{"var s int = -1;\nfunc main() { var x int = 1; println(x >> s); }", "runtime error: shift count -1 out of range at 2:40"},
	}
	for _, c := range cases {
		info := sem.MustCheck(parser.MustParse(c.src))
		_, err := parinterp.Run(info, parinterp.Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.src, err, c.want)
		}
		out, err := adversary.Run(info, adversary.Schedule{Policy: adversary.DepthFirst}, adversary.RunOptions{})
		if err != nil {
			t.Fatalf("%s: controlled run: %v", c.src, err)
		}
		if out.Err == nil || !strings.Contains(out.Err.Error(), c.want) {
			t.Errorf("%s: controlled err = %v, want containing %q", c.src, out.Err, c.want)
		}
		if strings.HasPrefix(c.want, "runtime error: shift") {
			_, seqErr := interp.Run(info, interp.Options{Mode: interp.Elide})
			if seqErr == nil || seqErr.Error() != c.want {
				t.Errorf("%s: sequential err = %v, want %q", c.src, seqErr, c.want)
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
	parRes, err := parinterp.Run(info, parinterp.Options{})
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
	res, err := parinterp.Run(info, parinterp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "18\n" {
		t.Errorf("got %q, want 18", res.Output)
	}
}
