package repair

import (
	"fmt"
	"testing"

	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

const miniMergesort = `
func mergesort(a []int, tmp []int, m int, n int) {
    if (m < n) {
        var mid = m + (n - m) / 2;
        async mergesort(a, tmp, m, mid);
        async mergesort(a, tmp, mid + 1, n);
        merge(a, tmp, m, mid, n);
    }
}
func merge(a []int, tmp []int, m int, mid int, n int) {
    var i = m;
    var j = mid + 1;
    var k = m;
    while (i <= mid && j <= n) {
        if (a[i] <= a[j]) { tmp[k] = a[i]; i = i + 1; }
        else { tmp[k] = a[j]; j = j + 1; }
        k = k + 1;
    }
    while (i <= mid) { tmp[k] = a[i]; i = i + 1; k = k + 1; }
    while (j <= n)   { tmp[k] = a[j]; j = j + 1; k = k + 1; }
    for (var t = m; t <= n; t = t + 1) { a[t] = tmp[t]; }
}
func main() {
    var size = 8;
    var a = make([]int, size);
    var tmp = make([]int, size);
    for (var i = 0; i < size; i = i + 1) { a[i] = (7 - i) * 3 % 11; }
    mergesort(a, tmp, 0, size - 1);
    var sum = 0;
    for (var i = 0; i < size; i = i + 1) { sum = sum + a[i] * i; }
    println(sum);
}
`

// wantGroup is one NS-LCA group a small program's round 0 must form:
// its race count, its dependence-graph vertices and the vertices left
// once serial runs merge, and its placements as printed.
type wantGroup struct {
	races, vertices, dpVertices int
	placements                  string
}

// checkRoundZeroGroups detects the races of src, groups them by NS-LCA
// and places each group, comparing the groups with want in NS-LCA order.
// Each group's placement problem must also solve to the same cost and
// finishes with and without the serial-run merge.
func checkRoundZeroGroups(t *testing.T, src string, want []wantGroup) {
	t.Helper()
	_, _, det, err := race.Detect(sem.MustCheck(parser.MustParse(src)), race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	groups := groupByNSLCA(det.Races())
	if len(groups) != len(want) {
		t.Fatalf("%d NS-LCA groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		ps, info, err := placeGroup(g, nil)
		if err != nil {
			t.Fatalf("group %d (NS-LCA %v): %v", i, g.lca, err)
		}
		got := wantGroup{races: len(g.races), vertices: info.Vertices, dpVertices: info.DPVertices, placements: fmt.Sprint(ps)}
		if got != want[i] {
			t.Errorf("group %d (NS-LCA %v): got %+v, want %+v", i, g.lca, got, want[i])
		}
		nodes, edges, err := depGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		checkContraction(t, fmt.Sprintf("group %d", i), placementProblem(nodes, edges, nil))
	}
}

// TestDebugMergesortGroups pins round 0 of a small unscoped mergesort:
// one group at the root and one per recursive async, each wrapping the
// two recursive asyncs (statements 1..2 of the if body) in a finish.
func TestDebugMergesortGroups(t *testing.T) {
	fin := "[finish around stmts 1..2 of block 2]"
	checkRoundZeroGroups(t, miniMergesort, []wantGroup{
		{races: 112, vertices: 8, dpVertices: 8, placements: fin},
		{races: 24, vertices: 7, dpVertices: 7, placements: fin},
		{races: 24, vertices: 7, dpVertices: 7, placements: fin},
	})
}

const miniSrc = `
func work(a []int, lo int, hi int) {
    for (var i = lo; i <= hi; i = i + 1) { a[i] = a[i] + 1; }
}

func split(a []int) {
    async work(a, 0, 3);
    async work(a, 4, 7);
    work(a, 0, 7);
}

func main() {
    var a = make([]int, 8);
    split(a);
    println(a[0]);
}
`

// TestDebugPlacements pins round 0 of a program whose two async workers
// race with a serial pass over the same array: one group at the root,
// repaired by one finish around the two asyncs (statements 0..1 of
// split's body).
func TestDebugPlacements(t *testing.T) {
	checkRoundZeroGroups(t, miniSrc, []wantGroup{
		{races: 25, vertices: 7, dpVertices: 7, placements: "[finish around stmts 0..1 of block 4]"},
	})
}
