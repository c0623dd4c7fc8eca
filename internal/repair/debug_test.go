package repair

import (
	"testing"

	"finishrepair/internal/dpst"
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

func TestDebugMergesortGroups(t *testing.T) {
	prog := parser.MustParse(miniMergesort)
	info := sem.MustCheck(prog)
	_, _, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	groups := groupByNSLCA(det.Races())
	for _, g := range groups {
		nodes := dpst.NonScopeChildren(g.lca)
		ps, _, err := placeGroup(g, nil)
		if err != nil {
			t.Fatalf("placeGroup: %v", err)
		}
		t.Logf("NS-LCA %v: %d races, %d vertices, placements %v", g.lca, len(g.races), len(nodes), ps)
		for i, n := range nodes {
			t.Logf("  v%d: %v owner=%v stmts=%d..%d work=%d", i, n, blockID(n), n.StmtLo, n.StmtHi, n.SubtreeWork)
		}
	}
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

func TestDebugPlacements(t *testing.T) {
	prog := parser.MustParse(miniSrc)
	info := sem.MustCheck(prog)
	_, _, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("races: %d", len(det.Races()))
	groups := groupByNSLCA(det.Races())
	for _, g := range groups {
		nodes := dpst.NonScopeChildren(g.lca)
		t.Logf("NS-LCA %v: %d races, %d vertices", g.lca, len(g.races), len(nodes))
		for i, n := range nodes {
			t.Logf("  v%d: %v owner=%v stmts=%d..%d work=%d", i, n,
				blockID(n), n.StmtLo, n.StmtHi, n.SubtreeWork)
		}
		for _, r := range g.races {
			sc := dpst.NonScopeChildOn(g.lca, r.Src)
			dc := dpst.NonScopeChildOn(g.lca, r.Dst)
			t.Logf("  race %v: %v -> %v", r, sc, dc)
		}
		ps, _, err := placeGroup(g, nil)
		if err != nil {
			t.Fatalf("placeGroup: %v", err)
		}
		for _, p := range ps {
			t.Logf("  placement: %v", p)
		}
	}
}

func blockID(n *dpst.Node) int {
	if n.OwnerBlock == nil {
		return -1
	}
	return n.OwnerBlock.ID
}
