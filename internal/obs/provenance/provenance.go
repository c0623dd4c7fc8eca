// Package provenance defines the structured "why did this finish land
// here" record the repair loop emits. It is a pure data package — no
// imports of dpst/race/repair — so any layer (the repair engine, tdr,
// the CLIs, cmd/hjreport) can produce or consume explain files without
// import cycles.
//
// One Explain document covers one hjrepair run: per repair iteration it
// records the detected race pairs, their NS-LCA groups, and for each
// group the DP placement decision (candidate vertices considered, the
// chosen finish range, DP states explored, fallback or not), plus the
// critical-path metrics before the first repair and after the last.
package provenance

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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

// RacePair is one detected race: the two conflicting steps, the shared
// location, and the access kinds.
type RacePair struct {
	First  Node   `json:"first"`
	Second Node   `json:"second"`
	Loc    string `json:"loc"`
	Kind   string `json:"kind,omitempty"` // "write-write", "read-write", ...
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

// Group is the per-NS-LCA placement decision: the races funneled into
// this group, the NS-LCA node they share, the candidate vertices the DP
// considered, what it chose, and how hard it had to work.
type Group struct {
	LCA        Node       `json:"lca"`
	Races      []RacePair `json:"races"`
	Candidates []Node     `json:"candidates,omitempty"`
	// Chosen lists the finish blocks the DP selected for this group (the
	// optimal partition may need more than one).
	Chosen   []Finish `json:"chosen,omitempty"`
	DPStates int64    `json:"dp_states"`
	Vertices int      `json:"vertices,omitempty"`
	Edges    int      `json:"edges,omitempty"`
	Fallback bool     `json:"fallback,omitempty"`
	Applied  bool     `json:"applied"`
	// PrunedSerial marks groups whose races were already serialized by a
	// finish placed for an earlier group this iteration.
	PrunedSerial bool   `json:"pruned_serial,omitempty"`
	Note         string `json:"note,omitempty"`
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

// Iteration is one round of the detect → group → place loop.
type Iteration struct {
	N      int        `json:"n"`
	Races  []RacePair `json:"races"`
	Groups []Group    `json:"groups"`
	CPL    *CPL       `json:"cpl,omitempty"` // tree CPL at the start of this round
}

// FinishEntry is the flattened per-placed-finish view (one entry per
// finish the repair inserted), which is what the acceptance criterion
// and hjreport's timeline consume.
type FinishEntry struct {
	Iteration int        `json:"iteration"`
	Finish    Finish     `json:"finish"`
	LCA       Node       `json:"lca"`
	Races     []RacePair `json:"races"`
	DPStates  int64      `json:"dp_states"`
	Fallback  bool       `json:"fallback,omitempty"`
	CPLBefore CPL        `json:"cpl_before"`
	CPLAfter  CPL        `json:"cpl_after"`
	// Strategy/StrategyWhy/CommuteFamily/CommuteProbe mirror the owning
	// group's strategy choice and commutativity evidence.
	Strategy      string `json:"strategy,omitempty"`
	StrategyWhy   string `json:"strategy_why,omitempty"`
	CommuteFamily string `json:"commute_family,omitempty"`
	CommuteProbe  string `json:"commute_probe,omitempty"`
}

// WitnessRec is one replayed race witness: the schedule under which the
// program observably diverged from the serial oracle, with the evidence.
type WitnessRec struct {
	// Race attributes the witness to a reported race ("W->W on loc 1
	// (3:9 vs 4:9)"); empty for unattributed verify divergences.
	Race string `json:"race,omitempty"`
	// Schedule is the replayable schedule ("defer-write@loc1", "random#7").
	Schedule string `json:"schedule"`
	Reason   string `json:"reason"` // "output differs", "final state differs", ...
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
	Schedules int         `json:"schedules"`
	Failures  int         `json:"failures"`
	Seed      int64       `json:"seed"`
	First     *WitnessRec `json:"first,omitempty"`
}

// GapVerdictRec is the schedule-search verdict for one coverage gap:
// "witnessed" (a directed schedule made the repaired program diverge),
// "unreachable" (no schedule ever executed the candidate's statements on
// this input), or "no-divergence".
type GapVerdictRec struct {
	Gap      string `json:"gap"`
	Status   string `json:"status"`
	Schedule string `json:"schedule,omitempty"` // witnessing schedule, if any
}

// Explain is the whole provenance document for one repair run.
type Explain struct {
	Program    string      `json:"program,omitempty"`
	Detector   string      `json:"detector,omitempty"` // "espbags", "vc", ...
	Engine     string      `json:"engine,omitempty"`   // "replay", "reexecute"
	Iterations []Iteration `json:"iterations"`
	// Finishes is derived by Finalize: one entry per applied placement.
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

// Finalize derives the flattened Finishes list and the run-level CPL
// before/after from the recorded iterations. Each applied group becomes
// one FinishEntry whose CPLBefore is its iteration's tree CPL and whose
// CPLAfter is the next iteration's (the run-final CPL for the last
// round) — i.e. the critical-path cost of exactly that round's fixes.
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
		for _, g := range it.Groups {
			if !g.Applied {
				continue
			}
			for _, f := range g.Chosen {
				e.Finishes = append(e.Finishes, FinishEntry{
					Iteration:     it.N,
					Finish:        f,
					LCA:           g.LCA,
					Races:         g.Races,
					DPStates:      g.DPStates,
					Fallback:      g.Fallback,
					CPLBefore:     before,
					CPLAfter:      after,
					Strategy:      g.Strategy,
					StrategyWhy:   g.StrategyWhy,
					CommuteFamily: g.CommuteFamily,
					CommuteProbe:  g.CommuteProbe,
				})
			}
		}
	}
}

// WriteJSON writes the document as indented JSON.
func (e *Explain) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
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
	if e.Detector != "" || e.Engine != "" {
		fmt.Fprintf(w, "detector: %s (engine: %s)\n", e.Detector, e.Engine)
	}
	fmt.Fprintf(w, "critical path: work %d span %d (parallelism %.2f) -> work %d span %d (parallelism %.2f)\n",
		e.CPLBefore.Work, e.CPLBefore.Span, e.CPLBefore.Parallelism(),
		e.CPLAfter.Work, e.CPLAfter.Span, e.CPLAfter.Parallelism())
	if len(e.Finishes) == 0 {
		fmt.Fprintln(w, "no finishes inserted (program already race-free or repair degraded)")
	}
	for i, f := range e.Finishes {
		kind := f.Finish.Kind
		if kind == "" {
			kind = "finish"
		}
		fmt.Fprintf(w, "\n%s %d (iteration %d): wrap statements %d..%d at %s\n",
			kind, i+1, f.Iteration, f.Finish.Lo, f.Finish.Hi, orUnknown(f.Finish.Pos))
		fmt.Fprintf(w, "  why: %d race(s) share NS-LCA %s node #%d at %s\n",
			len(f.Races), f.LCA.Kind, f.LCA.ID, orUnknown(f.LCA.Pos))
		if f.Strategy != "" {
			fmt.Fprintf(w, "  strategy: %s (%s)\n", f.Strategy, f.StrategyWhy)
		}
		if f.CommuteFamily != "" {
			fmt.Fprintf(w, "  commute: family %s, probe %s\n", f.CommuteFamily, f.CommuteProbe)
		}
		for _, r := range f.Races {
			fmt.Fprintf(w, "    race on %s: %s vs %s", r.Loc, orUnknown(r.First.Pos), orUnknown(r.Second.Pos))
			if r.Kind != "" {
				fmt.Fprintf(w, " (%s)", r.Kind)
			}
			fmt.Fprintln(w)
		}
		how := fmt.Sprintf("DP explored %d states", f.DPStates)
		if f.Fallback {
			how = "fallback placement (DP budget exceeded; widest safe range)"
		}
		fmt.Fprintf(w, "  how: %s; span %d -> %d\n", how, f.CPLBefore.Span, f.CPLAfter.Span)
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
		fmt.Fprintf(w, "\nwitnesses (%d race(s) replayed to a concrete divergence):\n", len(e.Witnesses))
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

func writeWitness(w io.Writer, indent string, wr *WitnessRec) {
	head := wr.Race
	if head == "" {
		head = "divergence"
	}
	fmt.Fprintf(w, "%s%s under %s: %s\n", indent, head, wr.Schedule, wr.Reason)
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
