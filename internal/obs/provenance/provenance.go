// Package provenance defines the structured "why did this finish land
// here" record the repair loop emits. It is a pure data package — no
// imports of dpst/race/repair — so any layer (the repair engine, tdr,
// the CLIs, cmd/hjreport) can produce or consume explain files without
// import cycles.
//
// One Explain document covers one hjrepair run: per repair iteration it
// records the NS-LCA groups of the detected races, each group's races
// folded into their static race classes, and for each group the DP
// placement decision (candidate vertices considered, the chosen finish
// ranges, DP states explored, fallback or not), plus the critical-path
// metrics before the first repair and after the last. Each fact is
// stored once: a finish entry names the groups that chose its scope
// instead of copying them.
package provenance

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CPL is a critical-path snapshot of the program's computation graph:
// total work, span (critical-path length), and the ideal parallelism
// ratio the two imply.
type CPL struct {
	Work int64 `json:"work"`
	Span int64 `json:"span"`
}

// Parallelism returns work/span, the ideal speedup. Zero span gives 0.
func (c CPL) Parallelism() float64 {
	if c.Span == 0 {
		return 0
	}
	return float64(c.Work) / float64(c.Span)
}

// Node identifies one S-DPST node in source terms: the step/async/finish
// kind, its statement position, and the dynamic node id (stable within
// one captured trace, not across runs).
type Node struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"` // "step", "async", "finish", "root"
	Pos  string `json:"pos,omitempty"`
}

// RaceClass is one static race of a group: its races of one kind
// between the same source and sink statements. First and Second are the
// steps of the class's first race, Races counts its dynamic races, and
// Locs lists its first distinct locations (at most race.ClassLocs).
type RaceClass struct {
	Kind   string   `json:"kind"` // "W->W", "R->W", "W->R"
	First  Node     `json:"first"`
	Second Node     `json:"second"`
	Races  int      `json:"races"`
	Locs   []uint64 `json:"locs"`
}

// Finish describes the placement the repair chose: the block the
// synthesized scope wraps and the statement index range [Lo, Hi] it
// encloses. Kind is "isolated" for isolated-wrapping repairs and empty
// (implicitly "finish") for the classic finish insertion.
type Finish struct {
	Pos  string `json:"pos,omitempty"` // position of the first wrapped statement
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
	Kind string `json:"kind,omitempty"`
}

// Group is the per-NS-LCA placement decision: the race classes funneled
// into this group, the NS-LCA node they share, the candidate vertices
// the DP considered, what it chose, and how hard it had to work.
type Group struct {
	LCA        Node        `json:"lca"`
	Classes    []RaceClass `json:"classes"`
	Candidates []Node      `json:"candidates,omitempty"`
	// Chosen lists the scopes the placement selected for this group, each
	// once (the optimal partition may need more than one).
	Chosen   []Finish `json:"chosen,omitempty"`
	DPStates int64    `json:"dp_states"`
	Vertices int      `json:"vertices,omitempty"`
	// DPVertices is the vertex count the DP solved over once serial runs
	// merged, set only when that is fewer than Vertices.
	DPVertices int    `json:"dp_vertices,omitempty"`
	Edges      int    `json:"edges,omitempty"`
	Fallback   bool   `json:"fallback,omitempty"`
	Applied    bool   `json:"applied"`
	Note       string `json:"note,omitempty"`
	// Strategy records the repair strategy chosen for this group
	// ("finish" or "isolated") when the loop evaluated alternatives, and
	// StrategyWhy the reason. FinishSpan/IsolatedSpan are the probed
	// post-repair critical paths (0 when a candidate was not probed).
	Strategy     string `json:"strategy,omitempty"`
	StrategyWhy  string `json:"strategy_why,omitempty"`
	FinishSpan   int64  `json:"finish_span,omitempty"`
	IsolatedSpan int64  `json:"isolated_span,omitempty"`
	// CommuteFamily names the recognized commutative update families of
	// the group's regions ("add", "min+max", ...), and CommuteProbe the
	// semantic order-probe verdict backing the static recognition
	// ("confirmed", "refuted", or "unsupported"). Both are empty when no
	// region was recognized.
	CommuteFamily string `json:"commute_family,omitempty"`
	CommuteProbe  string `json:"commute_probe,omitempty"`
}

// Races sums the group's class counts: its dynamic races.
func (g *Group) Races() int {
	n := 0
	for _, c := range g.Classes {
		n += c.Races
	}
	return n
}

// Iteration is one round of the detect → group → place loop. The
// round's races live in its groups: every race has exactly one NS-LCA,
// so the groups partition them.
type Iteration struct {
	N      int     `json:"n"`
	Groups []Group `json:"groups"`
	CPL    *CPL    `json:"cpl,omitempty"` // tree CPL at the start of this round
}

// FinishEntry is one scope a round inserted, which is what hjreport's
// timeline consumes. Groups indexes, into the round's Groups, the
// groups that chose the scope: their races, NS-LCA, DP effort and
// strategy are the reasons for it (Explain.GroupsOf resolves them).
type FinishEntry struct {
	Iteration int    `json:"iteration"`
	Finish    Finish `json:"finish"`
	Groups    []int  `json:"groups"`
	CPLBefore CPL    `json:"cpl_before"`
	CPLAfter  CPL    `json:"cpl_after"`
}

// WitnessRec is one replayed race witness: the schedule under which the
// program observably diverged from the serial oracle, with the evidence.
type WitnessRec struct {
	// Race attributes the witness to a static race ("W->W 3:9 vs 4:9")
	// and Races counts that class's dynamic races; both are empty for
	// unattributed verify divergences.
	Race  string `json:"race,omitempty"`
	Races int    `json:"races,omitempty"`
	// Schedule is the replayable schedule ("defer-write@loc1", "random#7").
	Schedule string `json:"schedule"`
	// Reason is "output differs", "final state differs", or
	// "schedule failed: ...".
	Reason string `json:"reason"`
	// Expected/Actual are the oracle's and the schedule's outputs.
	Expected string `json:"expected"`
	Actual   string `json:"actual"`
	// ExpectedState/ActualState render the final globals — the torn value
	// itself when the divergence never reaches the output.
	ExpectedState string `json:"expected_state,omitempty"`
	ActualState   string `json:"actual_state,omitempty"`
	// Trace is the schedule's grant-sequence digest, for replay checking.
	Trace string `json:"trace,omitempty"`
}

// AdversaryRec summarizes the post-repair adversarial verification: how
// many schedules ran, how many diverged from the serial oracle, and the
// first divergence if any.
type AdversaryRec struct {
	// Schedules is how many adversarial schedules ran; Failures how many
	// diverged from the serial oracle (0 for a sound repair).
	Schedules int `json:"schedules"`
	Failures  int `json:"failures"`
	// Seed based the seeded random-priority schedules.
	Seed  int64       `json:"seed"`
	First *WitnessRec `json:"first,omitempty"`
}

// GapVerdictRec is the schedule-search verdict for one coverage gap:
// "witnessed" (a directed schedule made the repaired program diverge),
// "unreachable" (no schedule ever executed the candidate's statements on
// this input), or "no-divergence".
type GapVerdictRec struct {
	Gap      string `json:"gap"` // the rendered coverage gap
	Status   string `json:"status"`
	Schedule string `json:"schedule,omitempty"` // witnessing schedule, if any
}

// Explain is the whole provenance document for one repair run.
type Explain struct {
	Program    string      `json:"program,omitempty"`
	Detector   string      `json:"detector,omitempty"` // "espbags", "vc", ...
	Iterations []Iteration `json:"iterations"`
	// Finishes is derived by Finalize: one entry per scope a round
	// inserted.
	Finishes  []FinishEntry `json:"finishes"`
	CPLBefore CPL           `json:"cpl_before"`
	CPLAfter  CPL           `json:"cpl_after"`
	Converged bool          `json:"converged"`
	Degraded  string        `json:"degraded,omitempty"`
	// CoverageGaps are static race candidates no dynamic race covered
	// (the hjrepair -vet residue), for the report's coverage panel.
	CoverageGaps []string `json:"coverage_gaps,omitempty"`
	// Witnesses are the replayed race witnesses found on the original
	// program (hjrepair -witness).
	Witnesses []WitnessRec `json:"witnesses,omitempty"`
	// Adversary is the post-repair K-schedule verification summary.
	Adversary *AdversaryRec `json:"adversary,omitempty"`
	// GapVerdicts are the schedule-search verdicts for the coverage gaps.
	GapVerdicts []GapVerdictRec `json:"gap_verdicts,omitempty"`
}

// Finalize derives the Finishes list and the run-level CPL before/after
// from the recorded iterations. Each distinct scope the applied groups
// of a round chose becomes one FinishEntry, in the order the round
// committed them, naming every group that chose it. Its CPLBefore is
// its iteration's tree CPL and its CPLAfter the next iteration's (the
// run-final CPL for the last round) — i.e. the critical-path cost of
// exactly that round's fixes.
func (e *Explain) Finalize() {
	e.Finishes = e.Finishes[:0]
	if len(e.Iterations) == 0 {
		return
	}
	sort.SliceStable(e.Iterations, func(i, j int) bool { return e.Iterations[i].N < e.Iterations[j].N })
	if c := e.Iterations[0].CPL; c != nil {
		e.CPLBefore = *c
	}
	if c := e.Iterations[len(e.Iterations)-1].CPL; c != nil {
		e.CPLAfter = *c
	}
	for idx, it := range e.Iterations {
		before, after := e.CPLBefore, e.CPLAfter
		if it.CPL != nil {
			before = *it.CPL
		}
		if idx+1 < len(e.Iterations) && e.Iterations[idx+1].CPL != nil {
			after = *e.Iterations[idx+1].CPL
		}
		entry := make(map[Finish]int)
		for gi, g := range it.Groups {
			if !g.Applied {
				continue
			}
			for _, f := range g.Chosen {
				k, ok := entry[f]
				if !ok {
					entry[f] = len(e.Finishes)
					e.Finishes = append(e.Finishes, FinishEntry{
						Iteration: it.N,
						Finish:    f,
						Groups:    []int{gi},
						CPLBefore: before,
						CPLAfter:  after,
					})
					continue
				}
				if gs := e.Finishes[k].Groups; gs[len(gs)-1] != gi {
					e.Finishes[k].Groups = append(gs, gi)
				}
			}
		}
	}
}

// GroupsOf returns the groups that chose entry f, from its round's
// record.
func (e *Explain) GroupsOf(f FinishEntry) []*Group {
	for i := range e.Iterations {
		it := &e.Iterations[i]
		if it.N != f.Iteration {
			continue
		}
		gs := make([]*Group, 0, len(f.Groups))
		for _, gi := range f.Groups {
			if gi >= 0 && gi < len(it.Groups) {
				gs = append(gs, &it.Groups[gi])
			}
		}
		return gs
	}
	return nil
}

// WriteJSON writes the document as compact JSON.
func (e *Explain) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(e)
}

// ReadJSON parses a document written by WriteJSON.
func ReadJSON(r io.Reader) (*Explain, error) {
	var e Explain
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// WriteText renders the human-readable "why this finish" summary shown
// by hjrepair -explain -v.
func (e *Explain) WriteText(w io.Writer) error {
	if e.Program != "" {
		fmt.Fprintf(w, "program: %s\n", e.Program)
	}
	if e.Detector != "" {
		fmt.Fprintf(w, "detector: %s\n", e.Detector)
	}
	fmt.Fprintf(w, "critical path: work %d span %d (parallelism %.2f) -> work %d span %d (parallelism %.2f)\n",
		e.CPLBefore.Work, e.CPLBefore.Span, e.CPLBefore.Parallelism(),
		e.CPLAfter.Work, e.CPLAfter.Span, e.CPLAfter.Parallelism())
	if len(e.Finishes) == 0 {
		fmt.Fprintln(w, "no finishes inserted (program already race-free or repair degraded)")
	}
	// listed names the block that printed each group's race classes, so
	// every class is printed once even when its group chose several
	// scopes.
	listed := make(map[*Group]string)
	for i, f := range e.Finishes {
		kind := f.Finish.Kind
		if kind == "" {
			kind = "finish"
		}
		block := fmt.Sprintf("%s %d", kind, i+1)
		fmt.Fprintf(w, "\n%s (iteration %d): wrap statements %d..%d at %s\n",
			block, f.Iteration, f.Finish.Lo, f.Finish.Hi, orUnknown(f.Finish.Pos))
		span := fmt.Sprintf("span %d -> %d", f.CPLBefore.Span, f.CPLAfter.Span)
		gs := e.GroupsOf(f)
		if len(gs) == 1 {
			fmt.Fprintf(w, "  why: %s\n", gs[0].why())
			writeGroup(w, "  ", gs[0], listed, block)
			fmt.Fprintf(w, "  how: %s; %s\n", gs[0].how(), span)
			continue
		}
		fmt.Fprintf(w, "  why: %d NS-LCA groups chose it\n", len(gs))
		for _, g := range gs {
			fmt.Fprintf(w, "  - %s; %s\n", g.why(), g.how())
			writeGroup(w, "    ", g, listed, block)
		}
		fmt.Fprintf(w, "  how: %s\n", span)
	}
	if e.Degraded != "" {
		fmt.Fprintf(w, "\ndegraded: %s\n", e.Degraded)
	}
	if len(e.CoverageGaps) > 0 {
		fmt.Fprintf(w, "\ncoverage gaps (%d static candidates not exercised dynamically):\n", len(e.CoverageGaps))
		for _, g := range e.CoverageGaps {
			fmt.Fprintf(w, "  %s\n", g)
		}
	}
	if len(e.Witnesses) > 0 {
		fmt.Fprintf(w, "\nwitnesses (%d static race(s) replayed to a concrete divergence):\n", len(e.Witnesses))
		for _, wr := range e.Witnesses {
			writeWitness(w, "  ", &wr)
		}
	}
	if len(e.GapVerdicts) > 0 {
		fmt.Fprintf(w, "\ngap search (schedule-directed verdicts for the coverage gaps):\n")
		for _, g := range e.GapVerdicts {
			fmt.Fprintf(w, "  %s: %s", g.Status, g.Gap)
			if g.Schedule != "" {
				fmt.Fprintf(w, " (schedule %s)", g.Schedule)
			}
			fmt.Fprintln(w)
		}
	}
	if e.Adversary != nil {
		fmt.Fprintf(w, "\nadversarial verify: %d/%d schedules diverged (seed %d)\n",
			e.Adversary.Failures, e.Adversary.Schedules, e.Adversary.Seed)
		if e.Adversary.First != nil {
			writeWitness(w, "  ", e.Adversary.First)
		}
	}
	return nil
}

// why says how many races the group holds and where their NS-LCA is.
func (g *Group) why() string {
	lca := "program root"
	if g.LCA.Kind != "root" {
		lca = fmt.Sprintf("%s node #%d at %s", g.LCA.Kind, g.LCA.ID, orUnknown(g.LCA.Pos))
	}
	return fmt.Sprintf("%d race(s) share NS-LCA %s", g.Races(), lca)
}

// how says how the group's placement was computed.
func (g *Group) how() string {
	if g.Fallback {
		return "fallback placement (DP budget exceeded; widest safe range)"
	}
	if g.DPVertices > 0 {
		return fmt.Sprintf("DP explored %d states over %d of %d vertices", g.DPStates, g.DPVertices, g.Vertices)
	}
	return fmt.Sprintf("DP explored %d states", g.DPStates)
}

// writeGroup prints the group's strategy choice and commutativity
// evidence, and its race classes, one line each, unless an earlier block
// listed them.
func writeGroup(w io.Writer, indent string, g *Group, listed map[*Group]string, block string) {
	if g.Strategy != "" {
		fmt.Fprintf(w, "%sstrategy: %s (%s)\n", indent, g.Strategy, g.StrategyWhy)
	}
	if g.CommuteFamily != "" {
		fmt.Fprintf(w, "%scommute: family %s, probe %s\n", indent, g.CommuteFamily, g.CommuteProbe)
	}
	if at, ok := listed[g]; ok {
		fmt.Fprintf(w, "%s  races listed under %s\n", indent, at)
		return
	}
	listed[g] = block
	for _, c := range g.Classes {
		fmt.Fprintf(w, "%s  %s %s vs %s: %d race(s) on %s\n", indent,
			c.Kind, orUnknown(c.First.Pos), orUnknown(c.Second.Pos), c.Races, c.LocList())
	}
}

// LocList renders the class's locations ("loc#3, loc#4"), ending in
// ", ..." when the class has more races than locations listed.
func (c *RaceClass) LocList() string {
	var b strings.Builder
	for i, l := range c.Locs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "loc#%d", l)
	}
	if c.Races > len(c.Locs) {
		b.WriteString(", ...")
	}
	return b.String()
}

// Subject names what the witness reproduces: its static race and that
// race's dynamic-race count ("W->W 3:9 vs 4:9 (2 race(s))"), or
// "divergence" for an unattributed one.
func (wr *WitnessRec) Subject() string {
	if wr.Race == "" {
		return "divergence"
	}
	return fmt.Sprintf("%s (%d race(s))", wr.Race, wr.Races)
}

func writeWitness(w io.Writer, indent string, wr *WitnessRec) {
	fmt.Fprintf(w, "%s%s under %s: %s\n", indent, wr.Subject(), wr.Schedule, wr.Reason)
	fmt.Fprintf(w, "%s  expected %q got %q\n", indent, wr.Expected, wr.Actual)
	if wr.ExpectedState != wr.ActualState {
		fmt.Fprintf(w, "%s  state expected %q got %q\n", indent, wr.ExpectedState, wr.ActualState)
	}
}

func orUnknown(s string) string {
	if s == "" {
		return "?"
	}
	return s
}
