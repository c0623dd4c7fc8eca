package adversary

import (
	"fmt"
	"slices"
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

// RaceTarget identifies one reported race: the shared location the
// race-directed schedules aim at, plus the report's kind and positions.
type RaceTarget struct {
	Loc            uint64
	Kind           string // "W->W", "R->W", "W->R"
	SrcPos, DstPos string
}

// Witness is a reproduced race: a deterministic schedule under which
// the program observably diverges from the serial oracle, with the
// evidence (expected vs actual output and final state).
type Witness struct {
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
// given reason.
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
// witness and gap searches, after their directed schedules.
const DefaultRandomSchedules = 16

// randomSchedules lists the seeded random-priority schedules a search
// falls back to.
func (o SearchOptions) randomSchedules() []Schedule {
	n := o.RandomSchedules
	if n == 0 {
		n = DefaultRandomSchedules
	}
	var scheds []Schedule
	for i := 0; i < n; i++ {
		scheds = append(scheds, Schedule{Policy: RandomPriority, Seed: o.Seed + int64(i)})
	}
	return scheds
}

// search runs one witness or gap search's schedules against the serial
// oracle, each distinct schedule at most once: an outcome depends only
// on the program and the schedule, so a repeat would reproduce it. Every
// run watches the same positions.
type search struct {
	info   *sem.Info
	oracle *Outcome
	opts   SearchOptions
	watch  []token.Pos
	runs   map[Schedule]*verdict
}

// verdict is one schedule's outcome as a search reads it: its
// divergence (nil when it matched the oracle) and which watched
// positions it reached.
type verdict struct {
	witness *Witness
	reached []bool
}

func newSearch(info *sem.Info, oracle *Outcome, opts SearchOptions, watch []token.Pos) *search {
	return &search{info: info, oracle: oracle, opts: opts, watch: watch, runs: make(map[Schedule]*verdict)}
}

// run returns the schedule's verdict, running it on first use.
func (s *search) run(sched Schedule) (*verdict, error) {
	if v, ok := s.runs[sched]; ok {
		return v, nil
	}
	out, err := Run(s.info, sched, RunOptions{Meter: s.opts.Meter, MaxYields: s.opts.MaxYields, Watch: s.watch})
	if err != nil {
		return nil, err
	}
	v := &verdict{reached: out.Reached}
	if div, reason := Diverges(s.oracle, out); div {
		v.witness = newWitness(sched, reason, s.oracle, out)
	}
	s.runs[sched] = v
	return v, nil
}

// FindWitness searches one deterministic witness per static race.
// classes lists each class's locations in report order. For each class
// the search tries the two race-directed schedules of each location in
// turn, then the seeded random-priority schedules; the first schedule
// that makes the program diverge from the serial oracle is the class's
// witness, and a nil entry means no tried schedule diverged. Each
// distinct schedule runs at most once per search, so the random
// schedules, which do not depend on the class, run once for every class
// that falls back to them. It also returns how many schedules ran.
func FindWitness(info *sem.Info, oracle *Outcome, classes [][]uint64, opts SearchOptions) ([]*Witness, int, error) {
	s := newSearch(info, oracle, opts, nil)
	randoms := opts.randomSchedules()
	witnesses := make([]*Witness, len(classes))
	for i, locs := range classes {
		start := time.Now()
		var scheds []Schedule
		for _, loc := range locs {
			scheds = append(scheds, RaceDirected(loc)...)
		}
		for _, sched := range append(scheds, randoms...) {
			v, err := s.run(sched)
			if err != nil {
				return nil, 0, err
			}
			if v.witness != nil {
				mWitnessesFound.Inc()
				witnesses[i] = v.witness
				break
			}
		}
		mWitnessNs.Observe(time.Since(start).Nanoseconds())
	}
	return witnesses, len(s.runs), nil
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
	// First is the first divergence, as a witness of no particular race.
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

// SearchGap drives unexercised static race candidates with
// position-directed schedules (defer accesses at each endpoint) plus
// seeded random-priority schedules, watching whether each candidate's
// statements execute at all. Run it on the REPAIRED program: the
// covered races are already fixed there, so any divergence is
// attributable to uncovered candidates.
//
// Every run watches every candidate's endpoints, and each distinct
// schedule runs at most once per search: a gap adds its two defer-pos
// schedules, and the random schedules, which do not depend on the gap,
// run once for all gaps. A gap's verdict is what running its own
// schedules in turn would give: the first divergence witnesses it, and
// its endpoints count as reached if a run up to that point reached
// them. It also returns how many schedules ran.
func SearchGap(info *sem.Info, oracle *Outcome, targets []GapTarget, opts SearchOptions) ([]*GapResult, int, error) {
	var watch []token.Pos // each endpoint once: every yield scans it
	index := func(p token.Pos) int {
		i := slices.Index(watch, p)
		if i < 0 {
			i, watch = len(watch), append(watch, p)
		}
		return i
	}
	ends := make([][2]int, len(targets))
	for i, t := range targets {
		ends[i] = [2]int{index(t.APos), index(t.BPos)}
	}
	s := newSearch(info, oracle, opts, watch)
	randoms := opts.randomSchedules()
	results := make([]*GapResult, len(targets))
	for i, target := range targets {
		mGapSearches.Inc()
		res := &GapResult{Target: target, Status: GapNoDivergence}
		scheds := append([]Schedule{
			{Policy: DeferPos, Pos: target.APos},
			{Policy: DeferPos, Pos: target.BPos},
		}, randoms...)
		for _, sched := range scheds {
			v, err := s.run(sched)
			if err != nil {
				return nil, 0, err
			}
			res.ReachedA = res.ReachedA || v.reached[ends[i][0]]
			res.ReachedB = res.ReachedB || v.reached[ends[i][1]]
			if v.witness != nil {
				mWitnessesFound.Inc()
				res.Status = GapWitnessed
				res.Witness = v.witness
				break
			}
		}
		if res.Status != GapWitnessed && (!res.ReachedA || !res.ReachedB) {
			res.Status = GapUnreachable
		}
		results[i] = res
	}
	return results, len(s.runs), nil
}
