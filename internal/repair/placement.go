package repair

import (
	"errors"
	"fmt"
	"sort"

	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// Pipeline metrics (registry names are stable; see README Observability).
var (
	mDPStates         = obs.Default().Counter("repair.dp_states")
	mFallbacks        = obs.Default().Counter("repair.fallback_placements")
	mGraphSize        = obs.Default().Histogram("repair.graph_size")
	mDPStatesPerGroup = obs.Default().Histogram("repair.dp_states_per_group")
)

// Placement is a static scope insertion: wrap statements Lo..Hi of Block
// in a new finish statement (the default) or, for Kind RangeIsolated, in
// a new isolated statement. Isolated placements cover one recognized
// update region — a straight-line run of statements inside a single
// maximal step — so against any finish range they are disjoint or
// nested, never partially overlapping. Class is the isolated lock class
// (0 = the global isolated lock; c > 0 = the per-location lock of
// abstract location c-1); it is meaningless for finish placements.
type Placement struct {
	Block  *ast.Block
	Lo, Hi int
	Kind   trace.RangeKind
	Class  int
}

// String renders the placement.
func (p Placement) String() string {
	return fmt.Sprintf("%s around stmts %d..%d of block %d", p.Kind, p.Lo, p.Hi, p.Block.ID)
}

// group is the set of races sharing one NS-LCA (paper §6.1 steps 1-2).
type group struct {
	lca   *dpst.Node
	races []*race.Race
}

// groupByNSLCA groups races by the NS-LCA of source and sink, ordered by
// the NS-LCA's DFS number.
func groupByNSLCA(races []*race.Race) []*group {
	byNode := make(map[*dpst.Node]*group)
	var order []*group
	for _, r := range races {
		l := dpst.NSLCA(r.Src, r.Dst)
		g := byNode[l]
		if g == nil {
			g = &group{lca: l}
			byNode[l] = g
			order = append(order, g)
		}
		g.races = append(g.races, r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].lca.ID < order[j].lca.ID })
	return order
}

// wrap is a concrete S-DPST insertion point: a new finish becomes the
// parent of children a..b of node p, covering statements lo..hi of the
// children's owner block.
type wrap struct {
	p      *dpst.Node
	a, b   int
	owner  *ast.Block
	lo, hi int
}

// computeWrap finds the highest S-DPST node under which a new finish can
// adopt a consecutive child range covering exactly the dependence-graph
// vertices nodes[s..e] and nothing else (paper §5.2, bottom-up
// traversal). The returned wrap satisfies the static-expressibility
// rules:
//
//   - climbing only passes through scope nodes (wrapping all children of
//     an async or finish is NOT the same as wrapping the construct);
//   - a proper subrange of a loop's iterations is not expressible;
//   - the covered children must share one owner block and must not
//     include loop-header pseudo-steps (StmtLo < 0).
func computeWrap(nodes []*dpst.Node, s, e int) (wrap, bool) {
	ns, ne := nodes[s], nodes[e]
	var p *dpst.Node
	if s == e {
		p = ns.Parent
	} else {
		p = dpst.LCA(ns, ne)
	}

	childIndex := func(parent, descendant *dpst.Node) int {
		// Index of parent's child on the path down to descendant.
		cur := descendant
		for cur.Parent != parent {
			cur = cur.Parent
			if cur == nil {
				return -1
			}
		}
		for i, c := range parent.Children {
			if c == cur {
				return i
			}
		}
		return -1
	}

	a := childIndex(p, ns)
	b := childIndex(p, ne)
	if a < 0 || b < 0 || a > b {
		return wrap{}, false
	}

	// Alignment: children a..b of p must flatten to exactly nodes[s..e].
	// It suffices that the leftmost flattened vertex of child a is ns and
	// the rightmost of child b is ne (the in-between ones are contiguous
	// by DFS order).
	if leftmostNonScope(p.Children[a]) != ns || rightmostNonScope(p.Children[b]) != ne {
		return wrap{}, false
	}

	// Climb through scope nodes while the selected range covers all of
	// p's children: wrapping everything inside a scope node is the same
	// set of leaves as wrapping the scope construct itself, and higher
	// placements are preferred (paper: "the highest node").
	for a == 0 && b == len(p.Children)-1 && p.IsScope() && p.Parent != nil {
		q := p.Parent
		i := -1
		for ci, c := range q.Children {
			if c == p {
				i = ci
				break
			}
		}
		if i < 0 {
			return wrap{}, false
		}
		p, a, b = q, i, i
	}

	// A proper subrange of loop iterations cannot be wrapped statically.
	if p.Class == dpst.LoopScope && !(a == 0 && b == len(p.Children)-1) {
		return wrap{}, false
	}

	// The covered children must be statement instances of one block, and
	// none may be a loop-header pseudo-step.
	owner := p.Children[a].OwnerBlock
	if owner == nil {
		return wrap{}, false
	}
	lo, hi := p.Children[a].StmtLo, p.Children[a].StmtHi
	for i := a; i <= b; i++ {
		c := p.Children[i]
		if c.OwnerBlock != owner || c.StmtLo < 0 {
			return wrap{}, false
		}
		if c.StmtLo < lo {
			lo = c.StmtLo
		}
		if c.StmtHi > hi {
			hi = c.StmtHi
		}
	}
	// Statement granularity: the rewrite wraps whole statements lo..hi.
	// If the next sibling child shares statement hi (e.g. the wrap ends
	// at the argument-evaluation step of a call whose body follows), the
	// rewrite would pull that sibling — and any race sinks inside it —
	// into the finish, breaking the fix. Reject such wraps; the DP then
	// picks a partition that ends on a statement boundary. (Overlap on
	// the LEFT only widens the finish start, which is safe.)
	if b+1 < len(p.Children) {
		next := p.Children[b+1]
		if next.OwnerBlock == owner && next.StmtLo >= 0 && next.StmtLo <= hi {
			return wrap{}, false
		}
	}
	return wrap{p: p, a: a, b: b, owner: owner, lo: lo, hi: hi}, true
}

func leftmostNonScope(n *dpst.Node) *dpst.Node {
	for n.IsScope() {
		if len(n.Children) == 0 {
			return n
		}
		n = n.Children[0]
	}
	return n
}

func rightmostNonScope(n *dpst.Node) *dpst.Node {
	for n.IsScope() {
		if len(n.Children) == 0 {
			return n
		}
		n = n.Children[len(n.Children)-1]
	}
	return n
}

// toPlacement converts an S-DPST wrap to the AST statement range it
// covers.
func toPlacement(w wrap) Placement {
	return Placement{Block: w.owner, Lo: w.lo, Hi: w.hi}
}

// depGraph reduces a group's races to the dependence DAG over the
// NS-LCA's non-scope children (§5.1): the ordered vertex list and the
// deduplicated race edges.
func depGraph(g *group) (nodes []*dpst.Node, edges [][2]int, err error) {
	nodes = dpst.NonScopeChildren(g.lca)
	pos := make(map[*dpst.Node]int, len(nodes))
	for i, n := range nodes {
		pos[n] = i
	}

	type edgeKey struct{ x, y int }
	edgeSet := make(map[edgeKey]bool)
	for _, r := range g.races {
		srcChild := dpst.NonScopeChildOn(g.lca, r.Src)
		dstChild := dpst.NonScopeChildOn(g.lca, r.Dst)
		if srcChild == nil || dstChild == nil {
			return nil, nil, fmt.Errorf("repair: race %v does not descend from its NS-LCA", r)
		}
		x, okx := pos[srcChild]
		y, oky := pos[dstChild]
		if !okx || !oky {
			return nil, nil, fmt.Errorf("repair: race child not among non-scope children")
		}
		if x == y {
			return nil, nil, fmt.Errorf("repair: race %v maps to a self edge; NS-LCA miscomputed", r)
		}
		if x > y {
			x, y = y, x
		}
		k := edgeKey{x, y}
		if !edgeSet[k] {
			edgeSet[k] = true
			edges = append(edges, [2]int{x, y})
		}
	}
	return nodes, edges, nil
}

// degradeGroup computes the coarse-but-sound placement for one group
// without touching the DP: every racing source child is joined (wrapped
// in its own finish, widening when a single-vertex wrap is not
// expressible) before its sink can start. Race-free though possibly
// over-synchronized — the graceful-degradation path taken when the
// DP-state or deadline budget trips mid-placement.
func degradeGroup(g *group) ([]Placement, error) {
	nodes, edges, err := depGraph(g)
	if err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return nil, nil
	}
	return fallbackPlacements(nodes, edges)
}

// placeInfo records how one group's placement went — DP states
// explored, the dependence-graph size, and whether the sound fallback
// was taken — for metrics and provenance.
type placeInfo struct {
	States   int64
	Vertices int
	Edges    int
	Fallback bool
}

// placeGroup computes the placements for one NS-LCA group: dependence
// graph construction (§5.1), the DP (§5.2), and the bottom-up mapping to
// AST coordinates. maxGraph bounds the DP size; larger graphs use the
// sound fallback of wrapping each race source child in its own finish.
// Budget trips and cancellations inside the DP surface as the meter's
// typed errors.
func placeGroup(g *group, maxGraph int, m *guard.Meter) ([]Placement, placeInfo, error) {
	var info placeInfo
	nodes, edges, err := depGraph(g)
	if err != nil {
		return nil, info, err
	}
	info.Vertices, info.Edges = len(nodes), len(edges)
	if len(edges) == 0 {
		return nil, info, nil
	}
	mGraphSize.Observe(int64(len(nodes)))

	if len(nodes) > maxGraph {
		info.Fallback = true
		ps, err := fallbackPlacements(nodes, edges)
		return ps, info, err
	}

	prob := &Problem{
		N:     len(nodes),
		T:     make([]int64, len(nodes)),
		Async: make([]bool, len(nodes)),
		Edges: edges,
		Valid: func(s, e int) bool {
			_, ok := computeWrap(nodes, s, e)
			return ok
		},
		Meter: m,
	}
	for i, n := range nodes {
		prob.T[i] = n.SubtreeWork
		prob.Async[i] = n.Kind == dpst.Async
	}

	sol, err := Solve(prob)
	if err != nil {
		var unsat *UnsatisfiableError
		if errors.As(err, &unsat) {
			info.Fallback = true
			ps, ferr := fallbackPlacements(nodes, edges)
			return ps, info, ferr
		}
		return nil, info, err
	}
	mDPStates.Add(sol.States)
	info.States = sol.States

	var out []Placement
	for i, fb := range sol.Finishes {
		w, ok := computeWrap(nodes, fb.S, fb.E)
		if !ok {
			// The DP only selects valid blocks; tolerate a mismatch by
			// falling back for this group.
			info.Fallback = true
			ps, ferr := fallbackPlacements(nodes, edges)
			return ps, info, ferr
		}
		out = append(out, toPlacement(widen(nodes, sol.Finishes, i, w)))
	}
	return out, info, nil
}

// widen hoists a finish block to the highest expressible scope when it
// is cost-neutral: pulling the STEPS immediately preceding the block
// into the finish changes neither the schedule (steps execute before the
// asyncs either way and spawn nothing) nor the critical path, but it can
// align the block with a whole scope and let the insertion climb — e.g.
// from "finish around the two recursive asyncs inside quicksort" to the
// paper's preferred "finish around the top-level call" (Figure 2).
func widen(nodes []*dpst.Node, all []FinishBlock, idx int, w wrap) wrap {
	fb := all[idx]
	best := w
	for s2 := fb.S - 1; s2 >= 0 && nodes[s2].Kind == dpst.Step; s2-- {
		covered := false
		for j, other := range all {
			if j != idx && other.S <= s2 && s2 <= other.E {
				covered = true
				break
			}
		}
		if covered {
			break
		}
		if w2, ok := computeWrap(nodes, s2, fb.E); ok && w2.p.Depth < best.p.Depth {
			best = w2
		}
	}
	return best
}

// fallbackPlacements covers each edge with a simple valid finish block:
// preferably around the source vertex alone, otherwise some (s..e) with
// s <= src <= e < sink. Always race-eliminating (the finish joins the
// source subtree before the sink's sibling starts) though possibly
// over-synchronized. Used when the dependence graph exceeds the DP size
// bound or the DP finds no valid placement.
func fallbackPlacements(nodes []*dpst.Node, edges [][2]int) ([]Placement, error) {
	mFallbacks.Inc()
	type span struct{ s, e int }
	seen := make(map[span]bool)
	var out []Placement
	for _, edge := range edges {
		src, sink := edge[0], edge[1]
		found := false
		// Candidate blocks covering src and ending before sink, smallest
		// first.
		try := func(s, e int) bool {
			if seen[span{s, e}] {
				return true // already emitted a block covering this shape
			}
			w, ok := computeWrap(nodes, s, e)
			if !ok {
				return false
			}
			seen[span{s, e}] = true
			out = append(out, toPlacement(w))
			return true
		}
		if try(src, src) {
			found = true
		} else {
			for e := src + 1; e < sink && !found; e++ {
				found = try(src, e)
			}
			for s := src - 1; s >= 0 && !found; s-- {
				found = try(s, src)
			}
		}
		if !found {
			return nil, fmt.Errorf("repair: no expressible fallback placement for edge %d->%d", src, sink)
		}
	}
	return out, nil
}
