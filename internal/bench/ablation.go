package bench

import (
	"fmt"
	"io"
	"time"

	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

// AblationStats compares S-DPST construction with and without
// maximal-step collapsing of task-free scope subtrees. Collapsing is our
// eager realization of the paper's §9 future-work item ("garbage
// collection of parts of the S-DPST that do not exhibit race
// conditions"); the ablation quantifies what it buys.
type AblationStats struct {
	Name                     string
	NodesFull, NodesGC       int
	RacesFull, RacesGC       int
	DetectFull, DetectGC     time.Duration
	MaxGraphFull, MaxGraphGC int
}

// RunAblation measures one benchmark both ways on the repair input: the
// stripped program is captured once, then the trace is replayed with
// and without collapsing.
func RunAblation(b *Benchmark) (*AblationStats, error) {
	st := &AblationStats{Name: b.Name}
	prog, err := parser.Parse(b.Src(b.RepairSize))
	if err != nil {
		return nil, err
	}
	ast.StripFinishes(prog)
	info, err := sem.Check(prog)
	if err != nil {
		return nil, err
	}
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		return nil, err
	}
	for _, noCollapse := range []bool{true, false} {
		det := race.NewEngine(race.EngineESPBags, race.VariantMRW)
		t0 := time.Now()
		res, err := race.Analyze(tr, info.Prog, nil, det, nil, noCollapse)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)

		// Largest dependence graph any NS-LCA would present to the DP:
		// the maximum non-scope-children count over race NS-LCAs.
		maxGraph := maxDependenceGraph(det.Races())

		if noCollapse {
			st.NodesFull = res.Tree.NumNodes()
			st.RacesFull = len(det.Races())
			st.DetectFull = d
			st.MaxGraphFull = maxGraph
		} else {
			st.NodesGC = res.Tree.NumNodes()
			st.RacesGC = len(det.Races())
			st.DetectGC = d
			st.MaxGraphGC = maxGraph
		}
		det.Release()
	}
	return st, nil
}

func maxDependenceGraph(races []*race.Race) int {
	// Count non-scope children per distinct NS-LCA.
	seen := map[int]int{}
	max := 0
	for _, r := range races {
		l := dpst.NSLCA(r.Src, r.Dst)
		if _, ok := seen[l.ID]; !ok {
			seen[l.ID] = len(dpst.NonScopeChildren(l))
		}
		if seen[l.ID] > max {
			max = seen[l.ID]
		}
	}
	return max
}

// PrintAblation writes the collapse ablation for every benchmark.
func PrintAblation(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: maximal-step collapsing of task-free scopes (eager S-DPST GC, paper §9)")
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %14s %14s %10s %10s\n",
		"Benchmark", "Nodes", "Nodes+GC", "Races", "Races+GC", "Detect (ms)", "Detect+GC", "MaxDG", "MaxDG+GC")
	for _, b := range All() {
		st, err := RunAblation(b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %12d %12d %12d %12d %14s %14s %10d %10d\n",
			st.Name, st.NodesFull, st.NodesGC, st.RacesFull, st.RacesGC,
			ms(st.DetectFull), ms(st.DetectGC), st.MaxGraphFull, st.MaxGraphGC)
	}
	return nil
}
