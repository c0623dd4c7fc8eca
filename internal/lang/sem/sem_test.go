package sem_test

import (
	"strings"
	"testing"

	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
)

func checkErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = sem.Check(prog)
	if wantSubstr == "" {
		if err != nil {
			t.Fatalf("unexpected check error: %v\n%s", err, src)
		}
		return
	}
	if err == nil {
		t.Fatalf("expected error containing %q\n%s", wantSubstr, src)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSubstr)
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`func main() { var x = 1 + 1.5; }`, "matching numeric"},
		{`func main() { var x = 1 < true; }`, "matching numeric"},
		{`func main() { var x = true + true; }`, "matching numeric"},
		{`func main() { var x = 1.5 % 2.0; }`, "int operands"},
		{`func main() { var x = 1.0 << 2.0; }`, "int operands"},
		{`func main() { var x = 1 && 2; }`, "bool operands"},
		{`func main() { var x = !3; }`, "requires bool"},
		{`func main() { var x = -true; }`, "numeric operand"},
		{`func main() { if (1) { } }`, "must be bool"},
		{`func main() { while (2.0) { } }`, "must be bool"},
		{`func main() { for (; 5; ) { } }`, "must be bool"},
		{`func main() { var a = make([]int, 2); a[true] = 1; }`, "index must be int"},
		{`func main() { var a = make([]int, true); }`, "length must be int"},
		{`func main() { var x = 1; x[0] = 2; }`, "cannot index"},
		{`func main() { var x = 1; x = 1.5; }`, "cannot assign"},
		{`func main() { var a = make([]int, 1); a = make([]float, 1); }`, "cannot assign"},
		{`func main() { var s = "a"; s += "b"; }`, "numeric operands"},
		{`func main() { undefinedFn(); }`, "undefined function"},
		{`func main() { var y = zz; }`, "undefined: zz"},
		{`func f(a int) {} func main() { f(); }`, "expects 1 arguments"},
		{`func f(a int) {} func main() { f(1.5); }`, "must be int"},
		{`func f() int { return; } func main() { f(); }`, "must return int"},
		{`func f() { return 1; } func main() { f(); }`, "returns no value"},
		{`func f() int { return 1.5; } func main() { f(); }`, "must return int"},
		{`func main() { var x = 1; var x = 2; }`, "redeclared"},
		{`func f() {} func f() {} func main() { }`, "redeclared"},
		{`func len(a int) {} func main() { }`, "shadows a builtin"},
		{`func f() {}`, "no main function"},
		{`func main(x int) { }`, "main must take no parameters"},
		{`func main() { var x = len(3); }`, "requires an array"},
		{`func main() { var x = sqrt(4); }`, "requires a float"},
		{`func main() { var x = pow(2.0, 3); }`, "float arguments"},
		{`func main() { var x = "a" == "b"; }`, "comparable"},
	}
	for _, c := range cases {
		checkErr(t, c.src, c.want)
	}
}

func TestValidPrograms(t *testing.T) {
	cases := []string{
		`func main() { var x = 1; x += 2; x -= 1; x *= 3; x /= 2; println(x); }`,
		`func main() { var f = 1.5; f += 0.5; println(f, int(f), float(2)); }`,
		`func main() { var a = make([][]float, 2); a[0] = make([]float, 3); a[0][1] = 2.5; println(a[0][1]); }`,
		`func main() { var b = true && (1 < 2) || !false; println(b); }`,
		`func main() { var x = abs(-3) + int(abs(-2.5)); println(x); }`,
		`var g = 10; var h = g * 2; func main() { println(h); }`,
		`func f(a []int) int { return len(a); } func main() { println(f(make([]int, 4))); }`,
		`func main() { var s = "hi"; println(s, 1, true, 2.5); }`,
	}
	for _, src := range cases {
		checkErr(t, src, "")
	}
}

// Finish bodies are scope-transparent: declarations inside remain
// visible after the finish, and a finish cannot shadow.
func TestFinishScopeTransparent(t *testing.T) {
	checkErr(t, `
func main() {
    finish {
        var x = 1;
        async { println(x); }
    }
    println(x);
}
`, "")
	// Redeclaration across a finish boundary is therefore an error.
	checkErr(t, `
func main() {
    var x = 1;
    finish { var x = 2; }
    println(x);
}
`, "redeclared")
}

func TestBlockAndAsyncScopes(t *testing.T) {
	// Plain blocks and async bodies do scope.
	checkErr(t, `
func main() {
    { var x = 1; println(x); }
    { var x = 2; println(x); }
}
`, "")
	checkErr(t, `
func main() {
    async { var y = 1; println(y); }
    println(y);
}
`, "undefined: y")
	// Loop variables are scoped to the loop.
	checkErr(t, `
func main() {
    for (var i = 0; i < 2; i = i + 1) { println(i); }
    println(i);
}
`, "undefined: i")
}

func TestShadowing(t *testing.T) {
	checkErr(t, `
var x = 1;
func main() {
    var x = 2;
    if (x > 0) {
        var x = 3;
        println(x);
    }
    println(x);
}
`, "")
}

func TestFrameSlotsAndGlobals(t *testing.T) {
	prog := parser.MustParse(`
var a = 1;
var b = 2.5;
func f(p int, q int) int {
    var r = p + q;
    var s = r * 2;
    return s;
}
func main() {
    var x = f(1, 2);
    println(x, a, b);
}
`)
	info := sem.MustCheck(prog)
	if info.GlobalCount != 2 {
		t.Errorf("GlobalCount = %d, want 2", info.GlobalCount)
	}
	f := prog.Func("f")
	if got := info.FrameSize[f]; got != 4 { // p, q, r, s
		t.Errorf("FrameSize(f) = %d, want 4", got)
	}
	// Slots must be distinct per function.
	if info.GlobalSyms[0].Slot == info.GlobalSyms[1].Slot {
		t.Error("global slots collide")
	}
}

func TestExprTypesRecorded(t *testing.T) {
	prog := parser.MustParse(`func main() { var x = 1 + 2 * 3; println(x); }`)
	info := sem.MustCheck(prog)
	found := false
	for e, ty := range info.ExprType {
		if _, ok := e.(*ast.BinaryExpr); ok && ast.TypesEqual(ty, ast.IntType) {
			found = true
		}
	}
	if !found {
		t.Error("no binary int expression recorded in ExprType")
	}
}

func TestTypesEqual(t *testing.T) {
	cases := []struct {
		a, b ast.Type
		want bool
	}{
		{ast.IntType, ast.IntType, true},
		{ast.IntType, ast.FloatType, false},
		{&ast.ArrayType{Elem: ast.IntType}, &ast.ArrayType{Elem: ast.IntType}, true},
		{&ast.ArrayType{Elem: ast.IntType}, &ast.ArrayType{Elem: ast.FloatType}, false},
		{&ast.ArrayType{Elem: &ast.ArrayType{Elem: ast.BoolType}}, &ast.ArrayType{Elem: &ast.ArrayType{Elem: ast.BoolType}}, true},
		{nil, nil, true},
		{ast.IntType, nil, false},
	}
	for i, c := range cases {
		if got := ast.TypesEqual(c.a, c.b); got != c.want {
			t.Errorf("case %d: TypesEqual = %v, want %v", i, got, c.want)
		}
	}
}

// A non-void function must not fall off its end: the sequential
// executor would fail on the missing value where the parallel one reads
// zero, so the checker rejects the program up front.
func TestMissingReturn(t *testing.T) {
	src := `func f(n int) int { if (n > 0) { return n; } } func main() { println(f(0) + 1); }`
	_, err := sem.Check(parser.MustParse(src))
	if err == nil || err.Error() != "1:1: missing return at end of function f" {
		t.Fatalf("error = %v, want %q", err, "1:1: missing return at end of function f")
	}
	for _, body := range []string{
		`{ }`,
		`{ var x = 1; }`,
		`{ if (n > 0) { return 1; } }`,
		`{ if (n > 0) { return 1; } else { n = 2; } }`,
		`{ while (n > 0) { return 1; } }`,
		`{ for (var i = 0; i < n; i = i + 1) { return 1; } }`,
		`{ async { return 1; } }`,
		`{ return 1; n = 2; }`,
	} {
		checkErr(t, "func f(n int) int "+body+" func main() { f(1); }", "missing return at end of function f")
	}
	for _, body := range []string{
		`{ return 1; }`,
		`{ if (n > 0) { return 1; } else if (n < 0) { return 2; } else { return 3; } }`,
		`{ { n = 1; return n; } }`,
		`{ finish { async { n = 1; } return n; } }`,
		`{ isolated { return n; } }`,
		`{ while (true) { n = n + 1; } }`,
		`{ for (;;) { n = n + 1; } }`,
	} {
		checkErr(t, "func f(n int) int "+body+" func main() { f(1); }", "")
	}
	checkErr(t, `func f(n int) { if (n > 0) { return; } } func main() { f(1); }`, "")
}
