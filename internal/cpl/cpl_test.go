package cpl_test

import (
	"testing"

	"finishrepair/internal/cpl"
	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
)

func step(t *dpst.Tree, parent *dpst.Node, w int64) *dpst.Node {
	s := t.NewChild(parent, dpst.Step, dpst.NotScope, "")
	s.Work = w
	return s
}

func TestSequentialSpanEqualsWork(t *testing.T) {
	tree := dpst.NewTree()
	step(tree, tree.Root, 5)
	step(tree, tree.Root, 7)
	m := cpl.Analyze(tree)
	if m.Work != 12 || m.Span != 12 {
		t.Errorf("got work %d span %d, want 12 12", m.Work, m.Span)
	}
	if m.Parallelism() != 1 {
		t.Errorf("parallelism = %v, want 1", m.Parallelism())
	}
}

func TestAsyncsOverlap(t *testing.T) {
	// root: step(2); async(10); async(20); step(3)
	// span: asyncs start after the 2-unit step and overlap each other
	// and the trailing step: max(2+10, 2+20, 2+3) = 22.
	tree := dpst.NewTree()
	step(tree, tree.Root, 2)
	a1 := tree.NewChild(tree.Root, dpst.Async, dpst.NotScope, "")
	step(tree, a1, 10)
	a2 := tree.NewChild(tree.Root, dpst.Async, dpst.NotScope, "")
	step(tree, a2, 20)
	step(tree, tree.Root, 3)
	m := cpl.Analyze(tree)
	if m.Work != 35 {
		t.Errorf("work = %d, want 35", m.Work)
	}
	if m.Span != 22 {
		t.Errorf("span = %d, want 22", m.Span)
	}
}

func TestFinishJoins(t *testing.T) {
	// root: finish{ async(10); async(20) }; step(3)
	// span = max(10,20) + 3 = 23.
	tree := dpst.NewTree()
	f := tree.NewChild(tree.Root, dpst.Finish, dpst.NotScope, "")
	a1 := tree.NewChild(f, dpst.Async, dpst.NotScope, "")
	step(tree, a1, 10)
	a2 := tree.NewChild(f, dpst.Async, dpst.NotScope, "")
	step(tree, a2, 20)
	step(tree, tree.Root, 3)
	m := cpl.Analyze(tree)
	if m.Span != 23 {
		t.Errorf("span = %d, want 23", m.Span)
	}
}

func TestNestedFinishScopes(t *testing.T) {
	// root: async A { finish{ async(5) }; step(1) }; step(2)
	// A's internal span: 5 (join) + 1 = 6; root: max(6, 2) = 6.
	tree := dpst.NewTree()
	a := tree.NewChild(tree.Root, dpst.Async, dpst.NotScope, "")
	f := tree.NewChild(a, dpst.Finish, dpst.NotScope, "")
	inner := tree.NewChild(f, dpst.Async, dpst.NotScope, "")
	step(tree, inner, 5)
	step(tree, a, 1)
	step(tree, tree.Root, 2)
	m := cpl.Analyze(tree)
	if m.Span != 6 {
		t.Errorf("span = %d, want 6", m.Span)
	}
}

func TestScopesAreTransparent(t *testing.T) {
	// A scope between root and an async changes nothing.
	tree := dpst.NewTree()
	sc := tree.NewChild(tree.Root, dpst.Scope, dpst.IfScope, "if")
	a := tree.NewChild(sc, dpst.Async, dpst.NotScope, "")
	step(tree, a, 9)
	step(tree, tree.Root, 4)
	m := cpl.Analyze(tree)
	if m.Span != 9 {
		t.Errorf("span = %d, want 9", m.Span)
	}
}

// Property: for any generated program, Span <= Work; the serial elision
// has Span == Work after stripping asyncs is not possible here, so
// instead: a program with no asyncs has Span == Work.
func TestSpanBounds(t *testing.T) {
	for seed := int64(500); seed < 530; seed++ {
		prog := parser.MustParse(progen.Gen(seed, progen.Default()))
		info := sem.MustCheck(prog)
		tree, err := race.Tree(info)
		if err != nil {
			t.Fatal(err)
		}
		m := cpl.Analyze(tree)
		if m.Span > m.Work {
			t.Fatalf("seed %d: span %d > work %d", seed, m.Span, m.Work)
		}
		if m.Span <= 0 || m.Work <= 0 {
			t.Fatalf("seed %d: non-positive metrics %+v", seed, m)
		}
	}
}

// Adding finishes can only increase (or keep) the span; stripping them
// can only decrease it.
func TestStrippingReducesSpan(t *testing.T) {
	src := `
func work(a []int, i int) { a[i] = a[i] + 1; }
func main() {
    var a = make([]int, 4);
    finish { async work(a, 0); }
    finish { async work(a, 1); }
    finish { async work(a, 2); }
    println(a[0] + a[1] + a[2]);
}
`
	spanOf := func(s string) int64 {
		prog := parser.MustParse(s)
		info := sem.MustCheck(prog)
		tree, err := race.Tree(info)
		if err != nil {
			t.Fatal(err)
		}
		return cpl.Analyze(tree).Span
	}
	withFinish := spanOf(src)
	prog := parser.MustParse(src)
	// Strip and print to compare.
	info := sem.MustCheck(prog)
	_ = info
	stripped := `
func work(a []int, i int) { a[i] = a[i] + 1; }
func main() {
    var a = make([]int, 4);
    async work(a, 0);
    async work(a, 1);
    async work(a, 2);
    println(a[0] + a[1] + a[2]);
}
`
	if s := spanOf(stripped); s >= withFinish {
		t.Errorf("stripped span %d not smaller than synchronized %d", s, withFinish)
	}
}
