// Package tdr is the public facade of the test-driven data-race repair
// tool (Surendran et al., PLDI 2014): load an HJ-lite structured
// parallel program, detect the data races of its canonical sequential
// execution, and insert finish statements that eliminate them while
// maximizing parallelism and respecting the program's lexical scope.
//
// Typical use:
//
//	p, err := tdr.Load(src)
//	report, err := p.Repair(tdr.RepairOptions{})
//	fmt.Println(p.Source())       // program with inserted finishes
//	out, err := p.RunParallel(0)  // execute on real tasks
//
// Detector, Engine and Strategy are aliases of the internal packages'
// race.Variant, race.EngineKind and repair.Strategy, as Budget is of
// guard.Budget: their constants (MRW, SRW; ESPBags, VC, Both; Finish,
// Isolated, Auto) are the internal values themselves, with the
// internal String methods.
package tdr

import (
	"context"
	"errors"
	"fmt"

	"finishrepair/internal/analysis"
	"finishrepair/internal/cpl"
	"finishrepair/internal/dpst"
	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/internal/trace"
	"finishrepair/taskpar"
)

// Program is a loaded HJ-lite program. It keeps the checked program
// from Load for every later stage: StripFinishes and Repair only move
// statements into or out of finish and isolated bodies, which are
// scope-transparent, so the check stays valid (see package sem).
type Program struct {
	info   *sem.Info
	tracer *obs.Tracer
}

// Load parses and checks an HJ-lite source program. Any panic in the
// front end surfaces as an *InternalError.
func Load(src string) (*Program, error) { return LoadTraced(src, nil) }

// LoadTraced is Load with observability: the front-end phases are
// recorded as "parse" and "sem-check" spans on tr, and tr becomes the
// program's tracer for later Detect/Repair/Run calls. A nil tracer makes
// LoadTraced identical to Load.
func LoadTraced(src string, tr *obs.Tracer) (*Program, error) {
	var prog *ast.Program
	var info *sem.Info
	err := guard.Protect("parse", func() error {
		if err := faults.Inject(faults.Parse); err != nil {
			return err
		}
		sp := tr.Start("parse").SetInt("source_bytes", int64(len(src)))
		var perr error
		prog, perr = parser.Parse(src)
		sp.End()
		return perr
	})
	if err != nil {
		return nil, fmt.Errorf("tdr: %w", err)
	}
	err = guard.Protect("sem-check", func() error {
		if err := faults.Inject(faults.SemCheck); err != nil {
			return err
		}
		sp := tr.Start("sem-check")
		var serr error
		info, serr = sem.Check(prog)
		sp.End()
		return serr
	})
	if err != nil {
		return nil, fmt.Errorf("tdr: %w", err)
	}
	return &Program{info: info, tracer: tr}, nil
}

// Tracer returns the tracer attached at load time (nil when untraced).
func (p *Program) Tracer() *obs.Tracer { return p.tracer }

// Source renders the (possibly repaired) program as HJ-lite source.
func (p *Program) Source() string { return printer.Print(p.info.Prog) }

// StripFinishes removes every finish statement (the paper's way of
// producing buggy inputs for evaluation); it returns how many were
// removed.
func (p *Program) StripFinishes() int { return ast.StripFinishes(p.info.Prog) }

// CountFinishes returns the number of finish statements.
func (p *Program) CountFinishes() int { return ast.CountFinishes(p.info.Prog) }

// Detector selects the race-detector variant.
type Detector = race.Variant

// Detector variants (paper §4.1).
const (
	MRW = race.VariantMRW // multiple reader-writer: all races in one run
	SRW = race.VariantSRW // single reader-writer: classic ESP-Bags subset
)

// Engine selects the race-detector backend that analyzes the captured
// event trace.
type Engine = race.EngineKind

// Detector engines.
const (
	// ESPBags is the paper's ESP-Bags detector (default).
	ESPBags = race.EngineESPBags
	// VC is the vector-clock detector (after Kumar et al.).
	VC = race.EngineVC
	// Both runs the fused engine: one shadow scan of the replayed
	// execution whose every ordering query ESP-Bags and VC both answer;
	// the first query they disagree on surfaces as a *DisagreementError.
	Both = race.EngineBoth
)

// DisagreementError reports that the ESP-Bags and vector-clock oracles
// answered an ordering query of the same execution differently (Engine
// Both). Test with errors.As.
type DisagreementError = race.DisagreementError

// ParseDetector maps a -detector flag value to a variant and engine:
// the legacy values "mrw" and "srw" select the detector variant (with
// the ESP-Bags engine), while "espbags", "vc", and "both" select the
// engine (with the MRW variant).
func ParseDetector(s string) (Detector, Engine, bool) {
	switch s {
	case "mrw":
		return MRW, ESPBags, true
	case "srw":
		return SRW, ESPBags, true
	case "espbags":
		return MRW, ESPBags, true
	case "vc":
		return MRW, VC, true
	case "both":
		return MRW, Both, true
	}
	return MRW, ESPBags, false
}

// Strategy selects how the repair eliminates each race group; String
// renders its flag value.
type Strategy = repair.Strategy

// Repair strategies.
const (
	// Finish is the paper's repair: insert finish statements (default).
	Finish = repair.StrategyFinish
	// Isolated wraps commutative conflicting updates in isolated
	// blocks wherever that eliminates the group's races, falling back
	// to finish insertion per group where it does not.
	Isolated = repair.StrategyIsolated
	// Auto evaluates both candidates per race group and picks the one
	// with the shorter post-repair critical path (finish on ties).
	Auto = repair.StrategyAuto
)

// ParseStrategy maps a -strategy flag value to a Strategy; "iso" is an
// alias of "isolated".
func ParseStrategy(s string) (Strategy, bool) { return repair.ParseStrategy(s) }

// RaceInfo describes one detected data race.
type RaceInfo struct {
	// Kind is "W->W", "R->W", or "W->R" (source access -> sink access).
	Kind string
	// SrcStep and DstStep are S-DPST step IDs (source is DFS-earlier).
	SrcStep, DstStep int
	// SrcPos and DstPos are source positions of the statements the
	// racing steps cover, when known ("line:col").
	SrcPos, DstPos string
}

// RaceReport summarizes a detection run.
type RaceReport struct {
	Races      []RaceInfo
	SDPSTNodes int
	Output     string
}

// Detect runs the canonical sequential depth-first execution with the
// chosen detector and reports all races found.
func (p *Program) Detect(d Detector) (*RaceReport, error) {
	return p.DetectCtx(context.Background(), d, Budget{})
}

// DetectCtx is Detect with cancellation and a budget: the instrumented
// execution charges against b's op limit, the replay that builds the
// S-DPST against its node limit, and both abort with a typed error when
// ctx is canceled or a limit trips.
func (p *Program) DetectCtx(ctx context.Context, d Detector, b Budget) (*RaceReport, error) {
	return p.DetectEngineCtx(ctx, d, ESPBags, b)
}

// DetectEngineCtx is DetectCtx with an explicit detector engine: the
// program is captured once as an event trace and the trace is analyzed
// by the chosen backend. Engine Both cross-checks ESP-Bags against the
// vector-clock oracle on every ordering query and fails with a
// *DisagreementError on the first divergence.
func (p *Program) DetectEngineCtx(ctx context.Context, d Detector, e Engine, b Budget) (*RaceReport, error) {
	eng := race.NewEngine(e, d)
	defer eng.Release()
	sp := p.tracer.Start("detect").
		SetStr("variant", d.String()).
		SetStr("engine", eng.Name())
	defer sp.End()
	res, tree, err := p.captureAnalyze(ctx, b, eng)
	if err != nil {
		return nil, err
	}
	sp.SetInt("races", int64(len(eng.Races()))).
		SetInt("sdpst_nodes", int64(tree.NumNodes()))
	rep := &RaceReport{SDPSTNodes: tree.NumNodes(), Output: res.Output}
	for _, r := range eng.Races() {
		rep.Races = append(rep.Races, RaceInfo{
			Kind:    r.Kind.String(),
			SrcStep: r.Src.ID,
			DstStep: r.Dst.ID,
			SrcPos:  r.Src.StmtPos(),
			DstPos:  r.Dst.StmtPos(),
		})
	}
	return rep, nil
}

// captureAnalyze is the detection step of DetectEngineCtx and
// SDPSTDotCtx: it captures the program's canonical execution under b,
// analyzes the trace with eng (overlapping the capture once the trace
// fills a full-size chunk, see race.CaptureAnalyze) and fails with a
// *DisagreementError if the fused engine's oracles diverged. It
// returns the run and its replayed S-DPST, the tree eng's races
// reference.
func (p *Program) captureAnalyze(ctx context.Context, b Budget, eng race.Engine) (*interp.Result, *dpst.Tree, error) {
	m := guard.NewMeter(ctx, b)
	var res *interp.Result
	var tree *dpst.Tree
	err := guard.Protect("detect", func() error {
		r, _, rr, err := race.CaptureAnalyze(p.info, nil, eng, m, false, nil)
		if err != nil {
			return err
		}
		res, tree = r, rr.Tree
		return eng.Check()
	})
	if err != nil {
		return nil, nil, fmt.Errorf("tdr: %w", err)
	}
	return res, tree, nil
}

// SDPSTDotCtx runs the canonical instrumented execution and renders the
// S-DPST in Graphviz DOT format with the detected races as dotted red
// edges — the paper's Figure 9 for your program. The capture charges
// against b's op limit, the replay that builds the S-DPST against its
// node limit, and both abort with a typed error when ctx is canceled or
// a limit trips.
func (p *Program) SDPSTDotCtx(ctx context.Context, b Budget) (string, error) {
	eng := race.NewEngine(ESPBags, MRW)
	defer eng.Release()
	_, tree, err := p.captureAnalyze(ctx, b, eng)
	if err != nil {
		return "", err
	}
	var edges [][2]*dpst.Node
	for _, r := range eng.Races() {
		edges = append(edges, [2]*dpst.Node{r.Src, r.Dst})
	}
	return tree.DOT(edges), nil
}

// RepairOptions configures Repair.
type RepairOptions struct {
	Detector Detector
	// Engine selects the detector backend (default ESPBags). Both
	// cross-checks every ordering query of every detection round and
	// fails the repair with a *DisagreementError if the oracles ever
	// diverge.
	Engine Engine
	// Budget bounds the run's resources (wall clock, interpreter ops, DP
	// states, S-DPST nodes, iterations). Zero value = defaults.
	Budget Budget
	// Tracer records per-phase spans; when nil, the tracer attached by
	// LoadTraced (if any) is used.
	Tracer *obs.Tracer
	// Workers sizes the pool that solves the independent per-NS-LCA
	// placement problems; 0 or 1 solves them in turn. Detection is the
	// same at any worker count: one serial shadow scan per round, and a
	// first round whose analysis overlaps the capture once the trace
	// fills a full-size chunk. The repaired program is byte-identical for
	// any worker count.
	Workers int
	// Vet runs the static analyzer over the program before the repair
	// and cross-references the static race-candidate set against the
	// dynamic races of every detection round. Candidates the test input
	// never exercised land in RepairReport.CoverageGaps — the repair is
	// only test-driven, and these are the pairs its guarantee does not
	// reach.
	Vet bool
	// Explain records the structured provenance of the repair — per
	// iteration: the NS-LCA groups with their static race classes and DP
	// placement decisions, and the critical-path length — in
	// RepairReport.Explain (hjrepair's -explain flag). Costs one CPL
	// analysis per round.
	Explain bool
	// Witness replays each static race (its kind and its source and sink
	// statements; see race.Class) under deterministic race-directed
	// schedules on the original program until it observably diverges
	// from the serial oracle, recording the divergence in
	// RepairReport.Witnesses; with Vet it also drives the coverage gaps
	// with position-directed schedules (RepairReport.GapVerdicts). It
	// implies a post-repair adversarial verification of
	// AdversarySchedules schedules (default DefaultAdversarySchedules).
	Witness bool
	// AdversarySchedules re-executes the repaired program under this many
	// adversarial schedules (race-directed plus seeded random-priority),
	// failing the repair with an *AdversaryError if any diverges from the
	// serial oracle. 0 with Witness means DefaultAdversarySchedules; 0
	// without Witness disables the stage.
	AdversarySchedules int
	// SchedSeed bases the seeded random-priority schedules; runs with the
	// same program, options, and seed are bit-identical.
	SchedSeed int64
	// Strategy selects how race groups are eliminated: finish insertion
	// (the zero value), isolated wrapping of commutative updates, or
	// per-group automatic choice by post-repair critical path.
	Strategy Strategy
}

// Explain is the structured repair-provenance record: why each finish
// was placed where it was. See the provenance package for the schema.
type Explain = provenance.Explain

// IterationReport details one detect/place/rewrite round.
type IterationReport = repair.Iteration

// RepairReport summarizes a repair.
type RepairReport struct {
	// Iterations is the number of detect/place/rewrite rounds (the last
	// one is the race-free confirmation).
	Iterations int
	// RacesFound is the total number of races detected across rounds.
	RacesFound int
	// FinishesInserted counts the inserted scope statements (finish and
	// isolated); IsolatedInserted counts how many of them are isolated.
	FinishesInserted int
	IsolatedInserted int
	// PerIteration details every round, in order.
	PerIteration []IterationReport
	// Output is the program output of the final race-free run.
	Output string
	// Degraded reports that a DP-state or deadline budget tripped
	// mid-placement and the repair fell back to the coarse sound
	// placement; DegradedReason carries the first trip. The result is
	// still verified race-free, just possibly over-synchronized.
	Degraded       bool
	DegradedReason string
	// StaticCandidates is the size of the static race-candidate set
	// (RepairOptions.Vet only).
	StaticCandidates int
	// CoverageGaps lists the static race candidates that no dynamic race
	// of the repair's detection rounds exercised (RepairOptions.Vet
	// only). The repaired program is race-free for the tested input;
	// these pairs are where other inputs could still race.
	CoverageGaps []CoverageGap
	// Explain is the finalized provenance record (RepairOptions.Explain
	// only): per round, the NS-LCA groups with their race classes and
	// DP effort, and one entry per inserted scope naming the groups that
	// chose it, with its CPL before/after.
	Explain *Explain
	// Witnesses replays each static race to a concrete divergence
	// (RepairOptions.Witness only): one entry, with its dynamic-race
	// count, per static race a deterministic schedule made observably
	// misbehave on the original program, in first-detected order.
	Witnesses []Witness
	// Adversary summarizes the post-repair K-schedule verification
	// (RepairOptions.Witness or AdversarySchedules > 0).
	Adversary *AdversaryReport
	// GapVerdicts are the schedule-search verdicts for CoverageGaps
	// (RepairOptions.Witness with Vet only), in the same order.
	GapVerdicts []GapVerdict
}

// CoverageGap is one static race candidate the test input never
// exercised: a statement pair that may run in parallel with conflicting
// effects, with no dynamic race covering it.
type CoverageGap struct {
	// APos and BPos are the "line:col" positions of the two statements;
	// AFunc and BFunc their enclosing functions.
	APos, BPos   string
	AFunc, BFunc string
	// Loc is the conflicting abstract location ("x", "a[]"); Kind is
	// "W/W" or "R/W".
	Loc  string
	Kind string
}

// String renders the gap for reports.
func (g CoverageGap) String() string {
	return fmt.Sprintf("%s (%s) and %s (%s) on %s [%s]", g.APos, g.AFunc, g.BPos, g.BFunc, g.Loc, g.Kind)
}

// RacesPerIteration lists each round's race count, in order.
func (r *RepairReport) RacesPerIteration() []int {
	out := make([]int, len(r.PerIteration))
	for i, it := range r.PerIteration {
		out[i] = it.Races
	}
	return out
}

// Repair runs the test-driven repair loop, mutating the program in
// place. After a successful repair the program is data-race-free for
// this input and Source returns the rewritten text.
//
// When the iteration bound is exhausted the error wraps
// *repair.MaxIterationsError and the partial report (every completed
// round) is returned alongside it.
func (p *Program) Repair(opts RepairOptions) (*RepairReport, error) {
	return p.RepairCtx(context.Background(), opts)
}

// loop builds the repair loop's options from opts, for Repair and
// RepairAcross alike.
func (opts RepairOptions) loop(tr *obs.Tracer, m *guard.Meter) repair.Options {
	return repair.Options{
		Variant:       opts.Detector,
		Engine:        opts.Engine,
		MaxIterations: opts.Budget.Iterations(),
		Tracer:        tr,
		Meter:         m,
		Workers:       opts.Workers,
		Strategy:      opts.Strategy,
	}
}

// RepairCtx is Repair with cancellation and a budget: canceling ctx
// aborts the loop mid-iteration with a *CanceledError; a tripped
// DP-state or deadline budget degrades to the coarse sound placement
// and marks the report Degraded; any panic surfaces as *InternalError.
// The partial report of the completed rounds accompanies every error.
func (p *Program) RepairCtx(ctx context.Context, opts RepairOptions) (*RepairReport, error) {
	tr := opts.Tracer
	if tr == nil {
		tr = p.tracer
	}
	m := guard.NewMeter(ctx, opts.Budget)

	// The static pass runs over the pre-repair AST: the replay loop only
	// mutates the tree when it finishes, and candidate lookups key on
	// statement identity, so the results stay valid across rounds.
	var res *analysis.Result
	if opts.Vet {
		vsp := tr.Start("vet")
		res = analysis.Analyze(p.info, vsp)
		vsp.SetInt("candidates", int64(len(res.Candidates()))).End()
	}
	ropts := opts.loop(tr, m)
	if opts.Vet {
		ropts.OnRaces = func(races []*race.Race) {
			for _, r := range races {
				res.MarkCovered(r.Src, r.Dst)
			}
		}
	}
	// Adversary mode snapshots the pre-repair source (witnesses replay
	// the races where they were reported) and collects every detection
	// round's racing locations, which the verification directs schedules
	// at, and with Witness its races' static classes, the witness
	// search's targets.
	adv := opts.Witness || opts.AdversarySchedules > 0
	var origSrc string
	var classes race.ClassSet
	var locs map[uint64]struct{}
	if adv {
		origSrc = printer.Print(p.info.Prog)
		locs = make(map[uint64]struct{})
		prev := ropts.OnRaces
		ropts.OnRaces = func(races []*race.Race) {
			if prev != nil {
				prev(races)
			}
			if opts.Witness {
				classes.Add(races)
			}
			for _, r := range races {
				locs[r.Loc] = struct{}{}
			}
		}
	}
	var ex *provenance.Explain
	if opts.Explain {
		ex = &provenance.Explain{Detector: opts.Engine.String()}
		ropts.Explain = ex
	}

	var rep *repair.Report
	err := guard.Protect("repair", func() error {
		var rerr error
		rep, rerr = repair.RepairChecked(p.info, ropts)
		return rerr
	})
	var report *RepairReport
	var advErr error
	if rep != nil {
		report = convertReport(rep)
		if opts.Vet {
			report.StaticCandidates = len(res.Candidates())
			for _, c := range res.UncoveredCandidates() {
				report.CoverageGaps = append(report.CoverageGaps, CoverageGap{
					APos:  c.APos.String(),
					BPos:  c.BPos.String(),
					AFunc: c.AFunc,
					BFunc: c.BFunc,
					Loc:   c.Loc,
					Kind:  c.Kind,
				})
			}
		}
		if adv {
			// Witnesses are searched even when the iteration bound
			// exhausted (the races are real either way); the gap search
			// and verification need a successful repair. Budget trips,
			// cancellation, and engine disagreement skip the stage.
			var mi *repair.MaxIterationsError
			if err == nil || errors.As(err, &mi) {
				advErr = p.adversaryStage(opts, m, report, origSrc, classes.Classes(), locs, res, err != nil)
			}
		}
		if ex != nil {
			if report.Degraded && ex.Degraded == "" {
				ex.Degraded = report.DegradedReason
			}
			for _, g := range report.CoverageGaps {
				ex.CoverageGaps = append(ex.CoverageGaps, g.String())
			}
			foldAdversary(ex, report)
			ex.Finalize()
			report.Explain = ex
		}
	}
	if err != nil {
		return report, fmt.Errorf("tdr: %w", err)
	}
	if advErr != nil {
		return report, fmt.Errorf("tdr: %w", advErr)
	}
	return report, nil
}

func convertReport(rep *repair.Report) *RepairReport {
	out := &RepairReport{
		Iterations:       len(rep.Iterations),
		RacesFound:       rep.TotalRaces(),
		FinishesInserted: rep.Inserted,
		Output:           rep.Output,
		Degraded:         rep.Degraded,
		DegradedReason:   rep.DegradedReason,
		PerIteration:     rep.Iterations,
	}
	for _, it := range rep.Iterations {
		for _, a := range it.Applied {
			if a.Kind == trace.RangeIsolated {
				out.IsolatedInserted++
			}
		}
	}
	return out
}

// RunSequential executes the serial elision (async/finish ignored) and
// returns its output — the semantic reference.
func (p *Program) RunSequential() (string, error) {
	return p.RunSequentialCtx(context.Background(), Budget{})
}

// RunSequentialCtx is RunSequential with cancellation and a budget.
func (p *Program) RunSequentialCtx(ctx context.Context, b Budget) (string, error) {
	m := guard.NewMeter(ctx, b)
	var out string
	err := guard.Protect("sequential-run", func() error {
		m.SetPhase("sequential-run")
		if err := faults.Inject(faults.SequentialRun); err != nil {
			return err
		}
		sp := p.tracer.Start("sequential-run")
		res, rerr := interp.Run(p.info, interp.Options{Mode: interp.Elide, Meter: m})
		sp.End()
		if rerr != nil {
			return rerr
		}
		out = res.Output
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("tdr: %w", err)
	}
	return out, nil
}

// RunParallel executes the program with real parallelism on a
// work-stealing pool of the given size (0 = GOMAXPROCS). The program
// should be race-free (expert-written or repaired).
func (p *Program) RunParallel(workers int) (string, error) {
	return p.RunParallelCtx(context.Background(), workers, Budget{})
}

// RunParallelCtx is RunParallel with cancellation and a budget. It runs
// the program compiled exactly as for RunSequential, under the
// free-running policy, so a runtime fault fails it with the sequential
// run's error text. It charges coarse work units (loop iterations,
// calls, task spawns) against the op budget, where the sequential runs
// charge every node; on cancellation or a trip, tasks that have not
// started are skipped and the run returns a typed error.
func (p *Program) RunParallelCtx(ctx context.Context, workers int, b Budget) (string, error) {
	m := guard.NewMeter(ctx, b)
	var out string
	err := guard.Protect("parallel-run", func() error {
		exec := taskpar.NewPoolExecutor(workers)
		defer exec.Shutdown()
		sp := p.tracer.Start("parallel-run").SetInt("workers", int64(workers))
		res, rerr := interp.RunParallel(p.info, interp.ParallelOptions{Executor: exec, Meter: m})
		sp.End()
		if rerr != nil {
			return rerr
		}
		out = res.Output
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("tdr: %w", err)
	}
	return out, nil
}

// Parallelism summarizes the available parallelism of an execution
// (Definition 1: maximal parallelism = minimal critical path length).
type Parallelism struct {
	// Work is the total work in abstract units (T1).
	Work int64
	// Span is the critical path length (T-infinity).
	Span int64
}

// Ratio returns Work/Span.
func (pl Parallelism) Ratio() float64 {
	if pl.Span == 0 {
		return 1
	}
	return float64(pl.Work) / float64(pl.Span)
}

// CriticalPath measures work and span of the program's execution on the
// deterministic cost model.
func (p *Program) CriticalPath() (Parallelism, error) {
	tree, err := race.Tree(p.info)
	if err != nil {
		return Parallelism{}, fmt.Errorf("tdr: %w", err)
	}
	m := cpl.Analyze(tree)
	return Parallelism{Work: m.Work, Span: m.Span}, nil
}
