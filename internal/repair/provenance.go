package repair

import (
	"finishrepair/internal/cpl"
	"finishrepair/internal/dpst"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/race"
)

// groupOutcome is the per-NS-LCA result one call to placeGroups hands
// back for provenance: the group, its computed placements, the DP
// effort spent, and whether the round applied the placements (deferred
// groups are re-examined by the next detection round).
type groupOutcome struct {
	g       *group
	ps      []Placement
	info    placeInfo
	applied bool
	note    string
	// choice records the strategy selection for this group, when a
	// non-finish strategy evaluated alternatives.
	choice *strategyChoice
}

// provNode converts an S-DPST node to its provenance form.
func provNode(n *dpst.Node) provenance.Node {
	if n == nil {
		return provenance.Node{ID: -1}
	}
	kind := "root"
	if n.Parent != nil {
		switch n.Kind {
		case dpst.Step:
			kind = "step"
		case dpst.Async:
			kind = "async"
		case dpst.Finish:
			kind = "finish"
		default:
			kind = "scope"
		}
	}
	return provenance.Node{ID: n.ID, Kind: kind, Pos: n.StmtPos()}
}

// provClasses folds a group's races into their static classes, in
// provenance form.
func provClasses(races []*race.Race) []provenance.RaceClass {
	var set race.ClassSet
	set.Add(races)
	out := make([]provenance.RaceClass, 0, len(set.Classes()))
	for _, c := range set.Classes() {
		out = append(out, provenance.RaceClass{
			Kind:   c.First.Kind.String(),
			First:  provNode(c.First.Src),
			Second: provNode(c.First.Dst),
			Races:  c.Races,
			Locs:   c.Locs,
		})
	}
	return out
}

// provFinish converts a placement to the provenance scope form,
// resolving the source position of the first wrapped statement.
func provFinish(p Placement) provenance.Finish {
	f := provenance.Finish{Lo: p.Lo, Hi: p.Hi}
	// The zero kind (finish) stays implicit, keeping pre-strategy explain
	// records byte-identical.
	if p.Kind != 0 {
		f.Kind = p.Kind.String()
	}
	if p.Lo >= 0 && p.Lo < len(p.Block.Stmts) {
		f.Pos = p.Block.Stmts[p.Lo].Pos().String()
	}
	return f
}

// provGroup converts one placement outcome to its provenance form,
// including the candidate vertices the DP partitioned.
func provGroup(o groupOutcome) provenance.Group {
	g := provenance.Group{
		LCA:      provNode(o.g.lca),
		Classes:  provClasses(o.g.races),
		DPStates: o.info.States,
		Vertices: o.info.Vertices,
		Edges:    o.info.Edges,
		Fallback: o.info.Fallback,
		Applied:  o.applied,
		Note:     o.note,
	}
	if o.info.DPVertices != o.info.Vertices {
		g.DPVertices = o.info.DPVertices
	}
	for _, n := range dpst.NonScopeChildren(o.g.lca) {
		g.Candidates = append(g.Candidates, provNode(n))
	}
	for _, p := range o.ps {
		g.Chosen = append(g.Chosen, provFinish(p))
	}
	if o.choice != nil {
		g.Strategy = o.choice.strategy
		g.StrategyWhy = o.choice.why
		g.FinishSpan = o.choice.finishSpan
		g.IsolatedSpan = o.choice.isoSpan
		g.CommuteFamily = o.choice.family
		g.CommuteProbe = o.choice.probe
	}
	return g
}

// provCPL measures the tree's critical path for the explain record.
// Returns nil when the tree is absent (a failed round).
func provCPL(t *dpst.Tree) *provenance.CPL {
	if t == nil {
		return nil
	}
	m := cpl.Analyze(t)
	return &provenance.CPL{Work: m.Work, Span: m.Span}
}
