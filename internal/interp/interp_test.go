package interp_test

import (
	"strings"
	"testing"

	"finishrepair/internal/interp"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/trace"
)

func run(t *testing.T, src string, mode interp.Mode) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := interp.Run(info, interp.Options{Mode: mode})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	return res.Output
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	prog := parser.MustParse(src)
	info := sem.MustCheck(prog)
	_, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, OpLimit: 1 << 20})
	return err
}

func TestArithmetic(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"7 + 3", "10"},
		{"7 - 3", "4"},
		{"7 * 3", "21"},
		{"7 / 3", "2"},
		{"7 % 3", "1"},
		{"-7 / 2", "-3"}, // Go-style truncation
		{"-7 % 3", "-1"},
		{"6 & 3", "2"},
		{"6 | 3", "7"},
		{"6 ^ 3", "5"},
		{"1 << 4", "16"},
		{"256 >> 3", "32"},
		{"7 < 8", "true"},
		{"8 <= 8", "true"},
		{"9 > 10", "false"},
		{"9 >= 10", "false"},
		{"3 == 3", "true"},
		{"3 != 3", "false"},
	}
	for _, c := range cases {
		got := run(t, "func main() { println("+c.expr+"); }", interp.DepthFirst)
		if got != c.want+"\n" {
			t.Errorf("%s = %q, want %q", c.expr, strings.TrimSpace(got), c.want)
		}
	}
}

func TestFloatsAndBuiltins(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"1.5 + 2.25", "3.75"},
		{"10.0 / 4.0", "2.5"},
		{"sqrt(9.0)", "3"},
		{"pow(2.0, 10.0)", "1024"},
		{"floor(2.9)", "2"},
		{"abs(-2.5)", "2.5"},
		{"abs(-7)", "7"},
		{"int(3.99)", "3"},
		{"int(-3.99)", "-3"},
		{"float(3) / 2.0", "1.5"},
		{"exp(0.0)", "1"},
		{"log(1.0)", "0"},
		{"sin(0.0)", "0"},
		{"cos(0.0)", "1"},
	}
	for _, c := range cases {
		got := run(t, "func main() { println("+c.expr+"); }", interp.DepthFirst)
		if got != c.want+"\n" {
			t.Errorf("%s = %q, want %q", c.expr, strings.TrimSpace(got), c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand would divide by zero; short-circuiting must
	// prevent evaluation.
	out := run(t, `
func boom() bool { var x = 1 / 0; return x == 0; }
func main() {
    var z = 0;
    if (z != 0 && boom()) { println("bad"); }
    if (z == 0 || boom()) { println("ok"); }
}
`, interp.DepthFirst)
	if out != "ok\n" {
		t.Errorf("got %q", out)
	}
}

func TestControlFlow(t *testing.T) {
	out := run(t, `
func classify(n int) int {
    if (n < 0) { return -1; }
    else if (n == 0) { return 0; }
    return 1;
}
func main() {
    var s = 0;
    for (var i = 0; i < 10; i = i + 1) { s = s + i; }
    var w = 0;
    while (w < 100) { w = w + 7; }
    println(s, w, classify(-5), classify(0), classify(9));
}
`, interp.DepthFirst)
	if out != "45 105 -1 0 1\n" {
		t.Errorf("got %q", out)
	}
}

func TestArraysAndNesting(t *testing.T) {
	out := run(t, `
func main() {
    var m = make([][]int, 3);
    for (var i = 0; i < 3; i = i + 1) {
        m[i] = make([]int, 3);
        for (var j = 0; j < 3; j = j + 1) {
            m[i][j] = i * 3 + j;
        }
    }
    var tr = 0;
    for (var i = 0; i < 3; i = i + 1) { tr = tr + m[i][i]; }
    println(tr, len(m), len(m[0]));
}
`, interp.DepthFirst)
	if out != "12 3 3\n" {
		t.Errorf("got %q", out)
	}
}

func TestCompoundAssignOnElements(t *testing.T) {
	out := run(t, `
func main() {
    var a = make([]int, 2);
    a[0] = 10;
    a[0] += 5;
    a[0] -= 3;
    a[0] *= 2;
    a[0] /= 4;
    var f = make([]float, 1);
    f[0] = 8.0;
    f[0] /= 2.0;
    println(a[0], f[0]);
}
`, interp.DepthFirst)
	if out != "6 4\n" {
		t.Errorf("got %q", out)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`func main() { var x = 1 / 0; println(x); }`, "division by zero"},
		{`func main() { var x = 1 % 0; println(x); }`, "modulo by zero"},
		{`func main() { var a = make([]int, 2); println(a[5]); }`, "out of range"},
		{`func main() { var a = make([]int, 2); println(a[-1]); }`, "out of range"},
		{`func main() { var a []int; println(a[0]); }`, "nil array"},
		{`func main() { var a []int; println(len(a)); }`, "len of nil"},
		{`func main() { var a = make([]int, -1); println(len(a)); }`, "negative length"},
		{`func main() { var x = 1 << 64; println(x); }`, "shift count"},
		{`func main() { while (true) { } }`, "op budget"},
	}
	for _, c := range cases {
		err := runErr(t, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestGlobalsInitializeInOrder(t *testing.T) {
	out := run(t, `
var a = 2;
var b = a * 10;
var c = make([]int, b);
func main() { println(a, b, len(c)); }
`, interp.DepthFirst)
	if out != "2 20 20\n" {
		t.Errorf("got %q", out)
	}
}

// Async bodies capture locals by value: mutating the captured copy does
// not affect the parent, and the parent's later writes are invisible to
// the child (in depth-first order the child runs first).
func TestAsyncCapturesByValue(t *testing.T) {
	out := run(t, `
var obs = make([]int, 2);
func main() {
    var x = 1;
    finish {
        async {
            obs[0] = x; // sees the spawn-time value
            x = 99;     // child's private copy
        }
    }
    obs[1] = x;
    println(obs[0], obs[1]);
}
`, interp.DepthFirst)
	if out != "1 1\n" {
		t.Errorf("got %q", out)
	}
}

// Arrays are shared by reference between tasks.
func TestArraysSharedAcrossTasks(t *testing.T) {
	out := run(t, `
func main() {
    var a = make([]int, 1);
    finish {
        async { a[0] = 41; }
    }
    a[0] = a[0] + 1;
    println(a[0]);
}
`, interp.DepthFirst)
	if out != "42\n" {
		t.Errorf("got %q", out)
	}
}

// Property: the serial elision and the depth-first execution produce the
// same output for any generated program (depth-first IS the elision
// order).
func TestElisionEqualsDepthFirst(t *testing.T) {
	for seed := int64(300); seed < 340; seed++ {
		src := progen.Gen(seed, progen.Default())
		if a, b := run(t, src, interp.Elide), run(t, src, interp.DepthFirst); a != b {
			t.Fatalf("seed %d: elide %q != depth-first %q\n%s", seed, a, b, src)
		}
	}
}

// Instrumentation must not change program semantics: a recorded run
// has the output, work and final globals of a plain one.
func TestInstrumentationTransparent(t *testing.T) {
	for seed := int64(400); seed < 420; seed++ {
		src := progen.Gen(seed, progen.Default())
		prog := parser.MustParse(src)
		info := sem.MustCheck(prog)
		plain, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst})
		if err != nil {
			t.Fatal(err)
		}
		instr, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Trace: trace.NewRecorder()})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Output != instr.Output {
			t.Fatalf("seed %d: instrumented output differs", seed)
		}
		if plain.Work != instr.Work {
			t.Fatalf("seed %d: instrumented work %d != %d", seed, instr.Work, plain.Work)
		}
		if a, b := interp.RenderState(info, plain.Globals), interp.RenderState(info, instr.Globals); a != b {
			t.Fatalf("seed %d: instrumented globals differ:\n%s\nvs\n%s", seed, b, a)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    interp.Value
		want string
	}{
		{interp.IntV(-5), "-5"},
		{interp.FloatV(2.5), "2.5"},
		{interp.BoolV(true), "true"},
		{interp.StringV("hi"), "hi"},
		{interp.VoidV(), "void"},
		{interp.Value{K: interp.KArray}, "nil"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.K, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	a := interp.Value{K: interp.KArray, A: &interp.Array{}}
	b := interp.Value{K: interp.KArray, A: &interp.Array{}}
	if a.Equal(b) {
		t.Error("distinct arrays compare equal")
	}
	if !a.Equal(a) {
		t.Error("array not equal to itself")
	}
	if !interp.IntV(3).Equal(interp.IntV(3)) || interp.IntV(3).Equal(interp.FloatV(3)) {
		t.Error("primitive equality wrong")
	}
}
