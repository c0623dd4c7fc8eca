// Adversarial schedule replay: the robustness layer on top of the
// repair loop. Where the repair's guarantee is analytic (the detector
// found no race on the canonical execution), this layer is empirical:
// it replays each static race under deterministic race-directed
// schedules until the program observably misbehaves (a witness), drives
// uncovered static candidates with position-directed schedules (gap
// search), and re-executes the repaired program under K adversarial
// schedules checking each against the serial oracle (verification).
// Every schedule is deterministic and replayable from its rendered name
// plus the seed.
package tdr

import (
	"context"
	"fmt"
	"slices"

	"finishrepair/internal/adversary"
	"finishrepair/internal/analysis"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/race"
)

// DefaultAdversarySchedules is the verification suite size when
// RepairOptions.Witness is set without an explicit AdversarySchedules.
const DefaultAdversarySchedules = adversary.DefaultRandomSchedules

// Gap-search verdicts (RepairReport.GapVerdicts[i].Status).
const (
	// GapWitnessed: a schedule directed at the candidate made the
	// repaired program diverge — a real race the test input's repair did
	// not cover.
	GapWitnessed = adversary.GapWitnessed
	// GapUnreachable: no schedule ever executed the candidate's
	// statements — the pair is unreachable on this input under any
	// interleaving; only a different input could drive it.
	GapUnreachable = adversary.GapUnreachable
	// GapNoDivergence: the statements ran but no tried interleaving
	// misbehaved.
	GapNoDivergence = adversary.GapNoDivergence
)

// Witness is a reproduced race: a deterministic schedule under which
// the program observably diverges from the serial oracle, plus the
// evidence. Re-running the same program under the same schedule
// reproduces the same divergence. It is the provenance record itself,
// so -explain writes it as is.
type Witness = provenance.WitnessRec

// AdversaryReport summarizes the post-repair K-schedule verification.
type AdversaryReport = provenance.AdversaryRec

// GapVerdict is the schedule-search verdict for one coverage gap; its
// Status is GapWitnessed, GapUnreachable, or GapNoDivergence.
type GapVerdict = provenance.GapVerdictRec

// AdversaryError reports that the repaired program diverged from the
// serial oracle under adversarial schedules — the repair is unsound for
// this input. Test with errors.As.
type AdversaryError struct {
	Failures, Schedules int
	First               *Witness
}

func (e *AdversaryError) Error() string {
	msg := fmt.Sprintf("adversarial verify: repaired program diverged from the serial oracle under %d of %d schedules", e.Failures, e.Schedules)
	if e.First != nil {
		msg += fmt.Sprintf(" (first: %s under %s)", e.First.Reason, e.First.Schedule)
	}
	return msg
}

func convertWitness(w *adversary.Witness) Witness {
	return Witness{
		Schedule:      w.Schedule.String(),
		Reason:        w.Reason,
		Expected:      w.Expected,
		Actual:        w.Actual,
		ExpectedState: w.ExpectedState,
		ActualState:   w.ActualState,
		Trace:         fmt.Sprintf("%016x", w.Trace),
	}
}

// adversaryStage runs the witness search, gap search, and K-schedule
// verification after the repair loop, filling report.Witnesses,
// report.GapVerdicts, and report.Adversary. origSrc is the pre-repair
// source (the witness search replays each static race where it was
// reported); the gap search and verification run on the repaired AST,
// whose original statements keep their source positions, and the
// verification directs schedules at locs, every racing location.
// repairFailed limits the stage to the witness search: a program the
// repair loop left racy has nothing sound to verify.
func (p *Program) adversaryStage(opts RepairOptions, m *guard.Meter, report *RepairReport, origSrc string, classes []race.Class, locs map[uint64]struct{}, res *analysis.Result, repairFailed bool) error {
	tr := opts.Tracer
	if tr == nil {
		tr = p.tracer
	}
	k := opts.AdversarySchedules
	if k <= 0 {
		k = DefaultAdversarySchedules
	}
	var stageErr error
	err := guard.Protect("adversary", func() error {
		m.SetPhase("adversary")
		sopts := adversary.SearchOptions{Meter: m, Seed: opts.SchedSeed}

		// Witness search: replay each static race on the original
		// program until a race-directed or seeded random schedule makes
		// it observably diverge from the serial oracle.
		if opts.Witness && len(classes) > 0 {
			prog, perr := parser.Parse(origSrc)
			if perr != nil {
				return perr
			}
			info, serr := sem.Check(prog)
			if serr != nil {
				return serr
			}
			oracle, oerr := adversary.Oracle(info, m)
			if oerr != nil {
				return oerr
			}
			sp := tr.Start("witness-search").SetInt("targets", int64(len(classes)))
			classLocs := make([][]uint64, len(classes))
			for i, c := range classes {
				classLocs[i] = c.Locs
			}
			ws, runs, werr := adversary.FindWitness(info, oracle, classLocs, sopts)
			sp.SetInt("schedules", int64(runs))
			if werr != nil {
				sp.End()
				return werr
			}
			for i, w := range ws {
				if w != nil {
					rec := convertWitness(w)
					rec.Race, rec.Races = classes[i].String(), classes[i].Races
					report.Witnesses = append(report.Witnesses, rec)
				}
			}
			sp.SetInt("witnesses", int64(len(report.Witnesses))).End()
		}
		if repairFailed {
			return nil
		}

		oracle, oerr := adversary.Oracle(p.info, m)
		if oerr != nil {
			return oerr
		}
		if oracle.Err != nil {
			return fmt.Errorf("sequential oracle failed on the repaired program: %w", oracle.Err)
		}

		// Gap search: drive each unexercised static candidate with
		// position-directed schedules on the repaired program (covered
		// races are fixed there, so any divergence belongs to a gap).
		if opts.Witness && res != nil {
			uncovered := res.UncoveredCandidates()
			if len(uncovered) > 0 {
				sp := tr.Start("gap-search").SetInt("gaps", int64(len(uncovered)))
				targets := make([]adversary.GapTarget, len(uncovered))
				for i, c := range uncovered {
					targets[i] = adversary.GapTarget{APos: c.APos, BPos: c.BPos, Desc: c.String()}
				}
				gres, runs, gerr := adversary.SearchGap(p.info, oracle, targets, sopts)
				sp.SetInt("schedules", int64(runs)).End()
				if gerr != nil {
					return gerr
				}
				for _, g := range gres {
					gv := GapVerdict{Gap: g.Target.Desc, Status: g.Status}
					if g.Witness != nil {
						gv.Schedule = g.Witness.Schedule.String()
					}
					report.GapVerdicts = append(report.GapVerdicts, gv)
				}
			}
		}

		// Adversarial verification: the repaired program must reproduce
		// the serial oracle under every one of K schedules — the
		// race-directed schedules on every previously racing location
		// (the interleavings that broke it before), then seeded
		// random-priority schedules.
		scheds := adversary.VerifySchedules(sortedLocs(locs), k, opts.SchedSeed)
		sp := tr.Start("adversarial-verify").SetInt("schedules", int64(len(scheds)))
		vrep, verr := adversary.Verify(p.info, oracle, scheds, sopts)
		if verr != nil {
			sp.End()
			return verr
		}
		sp.SetInt("failures", int64(vrep.Failures)).End()
		ar := &AdversaryReport{Schedules: len(vrep.Schedules), Failures: vrep.Failures, Seed: opts.SchedSeed}
		if vrep.First != nil {
			w := convertWitness(vrep.First)
			ar.First = &w
		}
		report.Adversary = ar
		if vrep.Failures > 0 {
			stageErr = &AdversaryError{Failures: vrep.Failures, Schedules: len(vrep.Schedules), First: ar.First}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return stageErr
}

// sortedLocs lists the locations in ascending order.
func sortedLocs(locs map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(locs))
	for l := range locs {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// foldAdversary records the stage's results in the provenance record.
func foldAdversary(ex *provenance.Explain, report *RepairReport) {
	ex.Witnesses = report.Witnesses
	ex.GapVerdicts = report.GapVerdicts
	ex.Adversary = report.Adversary
}

// StressOptions configures Stress.
type StressOptions struct {
	// Schedules is the suite size (0 = DefaultAdversarySchedules).
	Schedules int
	// Seed bases the seeded random-priority schedules.
	Seed int64
	// Budget bounds the run (every schedule's yields charge the op
	// budget).
	Budget Budget
}

// StressReport summarizes an adversarial stress run.
type StressReport struct {
	// Schedules is how many schedules ran; Failures how many diverged.
	Schedules, Failures int
	// Diverged lists each diverging schedule with its reason.
	Diverged []string
	// First is the first divergence in full.
	First *Witness
}

// Stress re-executes the program under adversarial schedules — the
// race-directed schedules for every global variable plus seeded
// random-priority schedules — and checks each against the serial
// oracle. A race-free program passes every schedule; a racy one is
// reported with a replayable witness. This is hjrun -mode stress.
func (p *Program) Stress(ctx context.Context, opts StressOptions) (*StressReport, error) {
	m := guard.NewMeter(ctx, opts.Budget)
	k := opts.Schedules
	if k <= 0 {
		k = DefaultAdversarySchedules
	}
	var rep *StressReport
	err := guard.Protect("stress", func() error {
		m.SetPhase("stress")
		oracle, oerr := adversary.Oracle(p.info, m)
		if oerr != nil {
			return oerr
		}
		if oracle.Err != nil {
			return fmt.Errorf("sequential oracle failed: %w", oracle.Err)
		}
		locs := make([]uint64, 0, p.info.GlobalCount)
		for i := 0; i < p.info.GlobalCount; i++ {
			locs = append(locs, interp.GlobalLoc(i))
		}
		scheds := adversary.VerifySchedules(locs, k, opts.Seed)
		sp := p.tracer.Start("adversarial-stress").SetInt("schedules", int64(len(scheds)))
		vrep, verr := adversary.Verify(p.info, oracle, scheds, adversary.SearchOptions{Meter: m, Seed: opts.Seed})
		if verr != nil {
			sp.End()
			return verr
		}
		sp.SetInt("failures", int64(vrep.Failures)).End()
		rep = &StressReport{Schedules: len(vrep.Schedules), Failures: vrep.Failures}
		for _, s := range vrep.Schedules {
			if s.Diverged {
				rep.Diverged = append(rep.Diverged, fmt.Sprintf("%s: %s", s.Schedule, s.Reason))
			}
		}
		if vrep.First != nil {
			w := convertWitness(vrep.First)
			rep.First = &w
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tdr: %w", err)
	}
	return rep, nil
}
