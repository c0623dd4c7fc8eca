package dpst_test

import (
	"strings"
	"testing"

	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
)

// build constructs a small tree by hand:
//
//	root(Finish)
//	├── step s0
//	├── async a1
//	│   ├── scope sc (if)
//	│   │   └── step s1
//	│   └── step s2
//	└── step s3
func build() (t *dpst.Tree, s0, a1, sc, s1, s2, s3 *dpst.Node) {
	t = dpst.NewTree()
	s0 = t.NewChild(t.Root, dpst.Step, dpst.NotScope, "")
	a1 = t.NewChild(t.Root, dpst.Async, dpst.NotScope, "async")
	sc = t.NewChild(a1, dpst.Scope, dpst.IfScope, "if")
	s1 = t.NewChild(sc, dpst.Step, dpst.NotScope, "")
	s2 = t.NewChild(a1, dpst.Step, dpst.NotScope, "")
	s3 = t.NewChild(t.Root, dpst.Step, dpst.NotScope, "")
	return
}

func TestLCAAndNSLCA(t *testing.T) {
	tree, s0, a1, sc, s1, s2, s3 := build()
	if got := dpst.LCA(s1, s2); got != a1 {
		t.Errorf("LCA(s1,s2) = %v, want %v", got, a1)
	}
	if got := dpst.LCA(s1, s3); got != tree.Root {
		t.Errorf("LCA(s1,s3) = %v, want root", got)
	}
	if got := dpst.LCA(s1, s1); got != s1 {
		t.Errorf("LCA(s1,s1) = %v, want s1", got)
	}
	// NSLCA of two steps under the same scope skips the scope.
	sX := tree.NewChild(sc, dpst.Step, dpst.NotScope, "")
	if got := dpst.NSLCA(s1, sX); got != a1 {
		t.Errorf("NSLCA under scope = %v, want %v", got, a1)
	}
	if got := dpst.NSLCA(s0, s3); got != tree.Root {
		t.Errorf("NSLCA(s0,s3) = %v, want root", got)
	}
	_ = s2
}

func TestNonScopeChildOn(t *testing.T) {
	tree, _, a1, sc, s1, s2, s3 := build()
	if got := dpst.NonScopeChildOn(tree.Root, s1); got != a1 {
		t.Errorf("child of root towards s1 = %v, want %v", got, a1)
	}
	if got := dpst.NonScopeChildOn(a1, s1); got != s1 {
		t.Errorf("child of a1 towards s1 = %v, want s1 (through scope)", got)
	}
	if got := dpst.NonScopeChildOn(a1, a1); got != nil {
		t.Errorf("child towards self = %v, want nil", got)
	}
	_, _, _ = sc, s2, s3
}

func TestParallelTheorem1(t *testing.T) {
	_, s0, _, _, s1, s2, s3 := build()
	// s1 and s2 are both within a1: s1 under a scope, s2 the
	// continuation; the non-scope child of their NS-LCA (a1) on the s1
	// side is a step/scope chain — NOT an async — so they are ordered.
	if dpst.Parallel(s1, s2) {
		t.Error("s1 and s2 are sequential within the task")
	}
	// s1 (inside async a1) and s3 (after it in the root): parallel.
	if !dpst.Parallel(s1, s3) {
		t.Error("s1 and s3 should be parallel (a1 is an async)")
	}
	// s0 precedes the async: ordered with everything.
	if dpst.Parallel(s0, s1) || dpst.Parallel(s0, s3) {
		t.Error("s0 is ordered before all later steps")
	}
	// A step is not parallel with itself.
	if dpst.Parallel(s1, s1) {
		t.Error("step parallel with itself")
	}
	// Symmetry.
	if dpst.Parallel(s1, s3) != dpst.Parallel(s3, s1) {
		t.Error("Parallel is not symmetric")
	}
}

func TestNonScopeChildren(t *testing.T) {
	_, s0, a1, _, s1, s2, s3 := build()
	got := dpst.NonScopeChildren(a1)
	if len(got) != 2 || got[0] != s1 || got[1] != s2 {
		t.Errorf("non-scope children of a1 = %v, want [s1 s2]", got)
	}
	root := a1.Parent
	got = dpst.NonScopeChildren(root)
	if len(got) != 3 || got[0] != s0 || got[1] != a1 || got[2] != s3 {
		t.Errorf("non-scope children of root = %v", got)
	}
}

func TestValidateCatchesBrokenTrees(t *testing.T) {
	tree, _, a1, _, s1, _, _ := build()
	if err := tree.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	s1.Depth = 99
	if err := tree.Validate(); err == nil {
		t.Error("wrong depth not caught")
	}
	s1.Depth = s1.Parent.Depth + 1
	a1.Children = append(a1.Children, a1.Children[0]) // duplicate, out of order
	if err := tree.Validate(); err == nil {
		t.Error("out-of-order children not caught")
	}
}

func TestCollapseScope(t *testing.T) {
	tree := dpst.NewTree()
	s0 := tree.NewChild(tree.Root, dpst.Step, dpst.NotScope, "")
	s0.Work = 3
	sc := tree.NewChild(tree.Root, dpst.Scope, dpst.LoopScope, "for")
	in1 := tree.NewChild(sc, dpst.Step, dpst.NotScope, "")
	in1.Work = 5
	in2 := tree.NewChild(sc, dpst.Step, dpst.NotScope, "")
	in2.Work = 7

	if !tree.CollapseScope(sc) {
		t.Fatal("collapse refused")
	}
	// sc merged into s0 (same nil owner block): root has one step child
	// with the combined work.
	if len(tree.Root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(tree.Root.Children))
	}
	merged := tree.Root.Children[0]
	if merged != s0 || merged.Work != 15 {
		t.Errorf("merged step = %v work %d, want s0 with work 15", merged, merged.Work)
	}
	// Forwarding resolves the absorbed nodes to the merged step.
	for _, n := range []*dpst.Node{sc, in1, in2} {
		if n.Resolve() != merged {
			t.Errorf("%v resolves to %v, want %v", n, n.Resolve(), merged)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("collapsed tree invalid: %v", err)
	}
}

func TestCollapseRefusesTaskSubtrees(t *testing.T) {
	tree := dpst.NewTree()
	sc := tree.NewChild(tree.Root, dpst.Scope, dpst.IfScope, "if")
	tree.NewChild(sc, dpst.Async, dpst.NotScope, "async")
	if tree.CollapseScope(sc) {
		t.Error("collapsed a scope containing an async")
	}
	if tree.CollapseScope(tree.Root) {
		t.Error("collapsed a non-scope node")
	}
}

func TestDumpAndDOT(t *testing.T) {
	tree, _, _, _, s1, _, s3 := build()
	d := tree.Dump()
	for _, want := range []string{"Finish(root):0", "Async(async)", "Scope(if)"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	dot := tree.DOT([][2]*dpst.Node{{s1, s3}})
	if !strings.Contains(dot, "style=dotted") {
		t.Error("DOT missing race edge")
	}
	if !strings.Contains(dot, "digraph") {
		t.Error("DOT missing header")
	}
}

// Property: on generated programs, trees replayed from the capture
// always validate, and DFS IDs strictly increase left to
// right.
func TestGeneratedTreesValidate(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		prog := parser.MustParse(progen.Gen(seed, progen.Default()))
		info := sem.MustCheck(prog)
		tree, err := race.Tree(info)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Leaves are steps; interior nodes are not.
		tree.Walk(func(n *dpst.Node) {
			if n.Kind == dpst.Step && len(n.Children) > 0 {
				t.Fatalf("seed %d: step %v has children", seed, n)
			}
		})
	}
}
