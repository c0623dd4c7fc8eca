package adversary

import (
	"fmt"
	"time"

	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
)

// Oracle runs the canonical sequential depth-first execution — the
// semantics every schedule of a race-free program must reproduce — and
// returns its output and rendered final global state.
func Oracle(info *sem.Info, meter *guard.Meter) (*Outcome, error) {
	res, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Meter: meter})
	if err != nil {
		if guard.IsBudgetOrCanceled(err) {
			return nil, err
		}
		return &Outcome{Schedule: Schedule{Policy: DepthFirst}, Err: err}, nil
	}
	return &Outcome{
		Schedule: Schedule{Policy: DepthFirst},
		Output:   res.Output,
		State:    interp.RenderState(info, res.Globals),
	}, nil
}

// Diverges compares a controlled outcome against the oracle and, when
// they disagree, says how.
func Diverges(oracle, o *Outcome) (bool, string) {
	if o.Err != nil {
		return true, fmt.Sprintf("schedule failed: %v", o.Err)
	}
	if o.Output != oracle.Output {
		return true, "output differs"
	}
	if o.State != oracle.State {
		return true, "final state differs"
	}
	return false, ""
}

// RaceTarget identifies one reported race for the witness search: the
// shared location the race-directed schedules aim at, plus the report's
// kind and positions for attribution.
type RaceTarget struct {
	Loc            uint64
	Kind           string // "W->W", "R->W", "W->R"
	SrcPos, DstPos string
}

// String renders the target as in race reports.
func (t RaceTarget) String() string {
	return fmt.Sprintf("%s on loc %d (%s vs %s)", t.Kind, t.Loc, t.SrcPos, t.DstPos)
}

// Witness is a reproduced race: a deterministic schedule under which
// the program observably diverges from the serial oracle, with the
// evidence (expected vs actual output and final state).
type Witness struct {
	Target   RaceTarget
	Schedule Schedule
	Reason   string // "output differs", "final state differs", "schedule failed: ..."
	Expected string // oracle output
	Actual   string // schedule output ("" when the schedule failed)
	// ExpectedState/ActualState are the rendered final globals — the
	// torn value itself when the divergence never reaches the output.
	ExpectedState, ActualState string
	// Err is the schedule's runtime failure, when that is the evidence.
	Err error
	// Yields and Trace fingerprint the replay (same schedule, same
	// program => same trace digest).
	Yields int64
	Trace  uint64
}

// newWitness records schedule s's divergence from the oracle, for the
// given reason, as a witness without a race target.
func newWitness(s Schedule, reason string, oracle, out *Outcome) *Witness {
	return &Witness{
		Schedule:      s,
		Reason:        reason,
		Expected:      oracle.Output,
		Actual:        out.Output,
		ExpectedState: oracle.State,
		ActualState:   out.State,
		Err:           out.Err,
		Yields:        out.Yields,
		Trace:         out.Trace,
	}
}

// SearchOptions bounds a witness/verify/gap search.
type SearchOptions struct {
	// Meter charges every schedule's yields to the pipeline budget;
	// budget/cancellation aborts the search with a typed error.
	Meter *guard.Meter
	// Seed bases the seeded random-priority schedules.
	Seed int64
	// RandomSchedules is how many seeded random schedules follow the
	// directed ones (0 = DefaultRandomSchedules).
	RandomSchedules int
	// MaxYields bounds each schedule run (0 = DefaultMaxYields).
	MaxYields int64
}

// DefaultRandomSchedules is the random-priority fallback depth of the
// witness search, after the two race-directed schedules.
const DefaultRandomSchedules = 16

func (o SearchOptions) randoms() int {
	if o.RandomSchedules == 0 {
		return DefaultRandomSchedules
	}
	return o.RandomSchedules
}

// FindWitness searches for a deterministic witness of one reported
// race: first the two race-directed schedules on the racing location,
// then seeded random-priority schedules. The first schedule that makes
// the program diverge from the serial oracle becomes the witness. A
// (nil, nil) return means no tried schedule diverged.
func FindWitness(info *sem.Info, oracle *Outcome, target RaceTarget, opts SearchOptions) (*Witness, error) {
	start := time.Now()
	defer func() { mWitnessNs.Observe(time.Since(start).Nanoseconds()) }()
	scheds := RaceDirected(target.Loc)
	for i := 0; i < opts.randoms(); i++ {
		scheds = append(scheds, Schedule{Policy: RandomPriority, Seed: opts.Seed + int64(i)})
	}
	for _, s := range scheds {
		out, err := Run(info, s, RunOptions{Meter: opts.Meter, MaxYields: opts.MaxYields})
		if err != nil {
			return nil, err
		}
		if div, reason := Diverges(oracle, out); div {
			mWitnessesFound.Inc()
			w := newWitness(s, reason, oracle, out)
			w.Target = target
			return w, nil
		}
	}
	return nil, nil
}

// ScheduleResult is one verify schedule's verdict.
type ScheduleResult struct {
	Schedule Schedule
	Diverged bool
	Reason   string
	Ns       int64
}

// VerifyReport summarizes an adversarial verification run.
type VerifyReport struct {
	Schedules []ScheduleResult
	Failures  int
	// First is the first divergence, as a witness without a race target.
	First *Witness
}

// VerifySchedules builds the K-schedule verification suite: the
// race-directed schedules for every target location (the interleavings
// that broke the program before repair), then seeded random-priority
// schedules up to k total.
func VerifySchedules(locs []uint64, k int, seed int64) []Schedule {
	var scheds []Schedule
	for _, loc := range locs {
		scheds = append(scheds, RaceDirected(loc)...)
	}
	if len(scheds) > k {
		scheds = scheds[:k]
	}
	for i := 0; len(scheds) < k; i++ {
		scheds = append(scheds, Schedule{Policy: RandomPriority, Seed: seed + int64(i)})
	}
	return scheds
}

// Verify re-executes the program under every schedule and compares each
// against the serial oracle. All schedules run even after a failure, so
// the report shows the full divergence surface.
func Verify(info *sem.Info, oracle *Outcome, scheds []Schedule, opts SearchOptions) (*VerifyReport, error) {
	rep := &VerifyReport{}
	for _, s := range scheds {
		t0 := time.Now()
		out, err := Run(info, s, RunOptions{Meter: opts.Meter, MaxYields: opts.MaxYields})
		ns := time.Since(t0).Nanoseconds()
		mVerifyScheduleNs.Observe(ns)
		if err != nil {
			return nil, err
		}
		div, reason := Diverges(oracle, out)
		rep.Schedules = append(rep.Schedules, ScheduleResult{Schedule: s, Diverged: div, Reason: reason, Ns: ns})
		if div {
			rep.Failures++
			if rep.First == nil {
				rep.First = newWitness(s, reason, oracle, out)
			}
		}
	}
	return rep, nil
}

// Gap-search verdicts.
const (
	// GapWitnessed: a schedule directed at the candidate's positions made
	// the program diverge — the gap is a real, dynamically reachable race
	// the test-driven repair did not cover.
	GapWitnessed = "witnessed"
	// GapUnreachable: no tried schedule ever executed one (or both) of
	// the candidate's statements — the pair is schedule-unreachable for
	// this input; only a different input could drive it.
	GapUnreachable = "unreachable"
	// GapNoDivergence: both statements executed under the tried
	// schedules but no interleaving misbehaved.
	GapNoDivergence = "no-divergence"
)

// GapTarget is one static race candidate to drive with schedule search.
type GapTarget struct {
	APos, BPos token.Pos
	Desc       string // rendered candidate, for reports
}

// GapResult is the verdict of a coverage-gap schedule search.
type GapResult struct {
	Target  GapTarget
	Status  string // GapWitnessed | GapUnreachable | GapNoDivergence
	Witness *Witness
	// ReachedA/ReachedB record whether any schedule executed a shared
	// access at the candidate's positions.
	ReachedA, ReachedB bool
}

// SearchGap drives one unexercised static race candidate with
// position-directed schedules (defer accesses at each endpoint) plus
// seeded random-priority schedules, watching whether the candidate's
// statements execute at all. Run it on the REPAIRED program: the
// covered races are already fixed there, so any divergence is
// attributable to uncovered candidates.
func SearchGap(info *sem.Info, oracle *Outcome, target GapTarget, opts SearchOptions) (*GapResult, error) {
	mGapSearches.Inc()
	scheds := []Schedule{
		{Policy: DeferPos, Pos: target.APos},
		{Policy: DeferPos, Pos: target.BPos},
	}
	for i := 0; i < opts.randoms(); i++ {
		scheds = append(scheds, Schedule{Policy: RandomPriority, Seed: opts.Seed + int64(i)})
	}
	res := &GapResult{Target: target, Status: GapNoDivergence}
	watch := []token.Pos{target.APos, target.BPos}
	for _, s := range scheds {
		out, err := Run(info, s, RunOptions{Meter: opts.Meter, MaxYields: opts.MaxYields, Watch: watch})
		if err != nil {
			return nil, err
		}
		res.ReachedA = res.ReachedA || out.Reached[0]
		res.ReachedB = res.ReachedB || out.Reached[1]
		if div, reason := Diverges(oracle, out); div {
			mWitnessesFound.Inc()
			res.Status = GapWitnessed
			res.Witness = newWitness(s, reason, oracle, out)
			return res, nil
		}
	}
	if !res.ReachedA || !res.ReachedB {
		res.Status = GapUnreachable
	}
	return res, nil
}
