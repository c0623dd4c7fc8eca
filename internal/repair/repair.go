package repair

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"finishrepair/internal/dpst"
	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// Loop-level metrics; the placement metrics live in placement.go.
var (
	mIterations   = obs.Default().Counter("repair.iterations")
	mRacesFound   = obs.Default().Counter("repair.races_detected")
	mInserted     = obs.Default().Counter("repair.finishes_inserted")
	mDegraded     = obs.Default().Counter("repair.degraded_placements")
	mTraceReplays = obs.Default().Counter("repair.trace_replays")
	mPrunedSerial = obs.Default().Counter("repair.groups_pruned_serial")
	// Per-iteration stage latency distributions, mirroring the
	// Iteration.DetectTime/PlaceTime/RewriteTime fields.
	mStageDetectNs  = obs.Default().Histogram("repair.stage_detect_ns")
	mStagePlaceNs   = obs.Default().Histogram("repair.stage_place_ns")
	mStageRewriteNs = obs.Default().Histogram("repair.stage_rewrite_ns")
)

// Options configures the repair loop.
type Options struct {
	// Variant selects the detector (default MRW, which finds all races in
	// one run; SRW may need extra iterations).
	Variant race.Variant
	// Oracle constructs the ordering oracle per detection run (default
	// ESP-Bags).
	Oracle func() race.Oracle
	// MaxIterations bounds repair/re-detect rounds (default 10).
	MaxIterations int
	// MaxGraph bounds the dependence-graph size handled by the O(n^3)
	// DP; larger graphs use the sound fallback placement (default 1200).
	MaxGraph int
	// UseTraceFiles round-trips detected races through the binary trace
	// encoding, mirroring the paper's detector/analyzer file boundary
	// (default true).
	UseTraceFiles bool
	// Tracer records per-phase spans of every iteration (sem-check,
	// detect/verify, trace-io, group-nslca, dp-place, rewrite). Nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
	// ParentSpan, when set, nests the repair's span tree under it
	// instead of opening a new root on Tracer (callers wrapping the
	// repair in a larger traced phase, e.g. the bench harness).
	ParentSpan *obs.Span
	// Meter threads the pipeline's shared budget and cancellation state
	// through every phase (detect runs, the DP, the loop itself). Nil
	// means unlimited and never canceled.
	Meter *guard.Meter
	// Engine selects the race-detector backend (default ESP-Bags).
	// EngineBoth cross-checks ESP-Bags against the vector-clock engine on
	// every analysis and fails the repair with a *race.DisagreementError
	// if they ever disagree.
	Engine race.EngineKind
	// ReExecute forces the legacy loop that re-executes the instrumented
	// program on every iteration instead of capturing the event trace
	// once and replaying it with virtual finish scopes. It exists for
	// differential testing of the two paths and ignores Engine.
	ReExecute bool
	// Workers bounds the analysis parallelism: with Engine Both the two
	// detector engines analyze the captured trace concurrently, and the
	// independent per-NS-LCA placement problems are solved on a worker
	// pool of this size. Results are accumulated in deterministic NS-LCA
	// order, so the repaired program is byte-identical for any worker
	// count. 0 or 1 is fully sequential.
	Workers int
	// OnRaces, when set, observes every detection round's race list
	// before any grouping or rewriting. The static-analysis integration
	// uses it to mark which static race candidates the test execution
	// actually exercised (the coverage-gap report of hjrepair -vet).
	OnRaces func([]*race.Race)
	// MHP, when set, is a conservative may-happen-in-parallel oracle
	// over S-DPST nodes. NS-LCA groups none of whose race pairs may run
	// in parallel statically are skipped before placement. Because a
	// sound oracle can never rule out a dynamically detected race, the
	// filter is a provable no-op on outputs; it exists to skip placement
	// work when a sound-but-incomplete oracle is supplied, and is
	// exercised as a cross-check of the static analysis.
	MHP func(src, dst *dpst.Node) bool
	// Explain, when non-nil, receives the structured provenance of the
	// repair: per iteration, the detected race pairs, their NS-LCA
	// groups, the DP placement decisions, and the tree's critical path.
	// Recording costs one cpl.Analyze per round plus the conversion of
	// races/groups to their provenance form; leave nil on hot paths.
	Explain *provenance.Explain
	// Strategy selects how race groups are eliminated: finish insertion
	// (the zero value — the paper's repair and the library default),
	// isolated wrapping of commutative updates, or per-group automatic
	// choice by post-repair critical path. Strategies other than finish
	// are evaluated only by the trace-replay loop; ReExecute ignores
	// this field and always inserts finishes.
	Strategy Strategy

	// defaultOracle records that the caller left Oracle unset: with the
	// stock ESP-Bags oracle, Engine Both + Workers > 1 runs the fused
	// dual-oracle engine (single shadow scan, per-query cross-check,
	// shardable). A custom Oracle pins the legacy two-engine
	// differential, whose race-set comparison is oracle-agnostic.
	defaultOracle bool
}

func (o *Options) fill() {
	if o.Oracle == nil {
		o.defaultOracle = true
		o.Oracle = func() race.Oracle { return race.NewBagsOracle() }
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 10
	}
	if o.MaxGraph == 0 {
		o.MaxGraph = 1200
	}
}

// AppliedRange is a scope insertion that was actually applied, in
// replayable form: block identity, the (post-merge) statement range,
// the synthesized construct (finish or isolated), and the isolated
// lock class (see Placement.Class).
type AppliedRange struct {
	BlockID int
	Lo, Hi  int
	Kind    trace.RangeKind
	Class   int
}

// Iteration records one detect/place/rewrite round.
type Iteration struct {
	Races      int
	NSLCAs     int
	Placements int
	SDPSTNodes int
	// DPStates counts the dynamic-programming states explored by this
	// round's finish placements.
	DPStates int64
	// Applied lists the finish insertions of this iteration in
	// application order, for Replay.
	Applied []AppliedRange
	// DetectTime covers the instrumented execution (data race detection
	// and S-DPST construction); RepairTime covers trace I/O, dynamic and
	// static finish placement, and the AST rewrite. PlaceTime and
	// RewriteTime break RepairTime down into the grouping+DP phase and
	// the AST rewrite phase.
	DetectTime  time.Duration
	RepairTime  time.Duration
	PlaceTime   time.Duration
	RewriteTime time.Duration
}

// Report summarizes a repair.
type Report struct {
	Iterations []Iteration
	// Inserted is the total number of finish statements inserted.
	Inserted int
	// Output is the program output of the final (race-free) detection
	// run.
	Output string
	// TraceBytes is the total size of the race trace files produced.
	TraceBytes int
	// Degraded reports that at least one placement fell back to the
	// coarse sound placement because the DP-state or deadline budget
	// tripped mid-placement; DegradedReason carries the first trip. The
	// repaired program is still verified race-free, just possibly
	// over-synchronized.
	Degraded       bool
	DegradedReason string
}

// TotalRaces sums the races found across iterations.
func (r *Report) TotalRaces() int {
	n := 0
	for _, it := range r.Iterations {
		n += it.Races
	}
	return n
}

// TotalDPStates sums the DP states explored across iterations.
func (r *Report) TotalDPStates() int64 {
	var n int64
	for _, it := range r.Iterations {
		n += it.DPStates
	}
	return n
}

// MaxIterationsError reports that the iteration bound was exhausted
// before a detection run came back race-free. The partial Report (with
// every completed iteration) is still returned alongside it.
type MaxIterationsError struct {
	// Iterations is the bound that was exhausted.
	Iterations int
	// RemainingRaces is the race count of the last detection run.
	RemainingRaces int
}

// Error implements the error interface.
func (e *MaxIterationsError) Error() string {
	return fmt.Sprintf("repair: %d race(s) remain after %d iterations", e.RemainingRaces, e.Iterations)
}

// Repair runs the test-driven repair loop on prog, mutating it in place:
// detect races on the canonical execution, compute finish placements,
// and repeat until a detection run is race-free. The default loop
// executes the instrumented program exactly once — iteration 0 captures
// the event-trace IR — and every later round replays that trace with
// the accumulated finish scopes injected virtually; the AST is
// rewritten once on exit. Options.ReExecute selects the legacy loop
// that re-executes and rewrites on every iteration.
func Repair(prog *ast.Program, opts Options) (*Report, error) {
	opts.fill()
	if opts.ReExecute {
		return repairReExecute(prog, opts)
	}
	return repairReplay(prog, opts)
}

// repairReExecute is the legacy loop: every iteration re-runs the
// instrumented program on the rewritten AST.
func repairReExecute(prog *ast.Program, opts Options) (*Report, error) {
	rep := &Report{}
	root := opts.ParentSpan.Child("repair")
	if opts.ParentSpan == nil {
		root = opts.Tracer.Start("repair")
	}
	defer func() {
		root.SetInt("iterations", int64(len(rep.Iterations))).
			SetInt("races_total", int64(rep.TotalRaces())).
			SetInt("finishes_inserted", int64(rep.Inserted)).
			End()
	}()
	for iter := 0; ; iter++ {
		if iter >= opts.MaxIterations {
			remaining := 0
			if n := len(rep.Iterations); n > 0 {
				remaining = rep.Iterations[n-1].Races
			}
			return rep, &MaxIterationsError{Iterations: iter, RemainingRaces: remaining}
		}
		// Cancellation gate between rounds; the phases below also check
		// from their own hot loops.
		opts.Meter.SetPhase("repair")
		if err := opts.Meter.Check(); err != nil {
			return rep, err
		}
		mIterations.Inc()
		iterSpan := root.Child("iteration").SetInt("n", int64(iter))
		iterErr := func(err error) (*Report, error) {
			iterSpan.SetStr("error", err.Error()).End()
			return rep, err
		}

		semSpan := iterSpan.Child("sem-check")
		info, err := sem.Check(prog)
		semSpan.End()
		if err != nil {
			return iterErr(fmt.Errorf("repair: program invalid after rewrite: %w", err))
		}

		detSpan := iterSpan.Child("detect").SetStr("variant", opts.Variant.String())
		t0 := time.Now()
		var res *interp.Result
		var det race.Detector
		err = guard.Protect("detect", func() error {
			r, d, err := race.DetectWith(info, opts.Variant, opts.Oracle(), opts.Meter)
			res, det = r, d
			return err
		})
		if err != nil {
			detSpan.End()
			return iterErr(fmt.Errorf("repair: execution failed: %w", err))
		}
		detectTime := time.Since(t0)
		mStageDetectNs.Observe(detectTime.Nanoseconds())
		if len(det.Races()) == 0 {
			// The race-free confirmation round is the paper's "verify"
			// stage (Fig. 6); rename so traces show it as such.
			detSpan.Rename("verify")
		}
		detSpan.SetInt("races", int64(len(det.Races()))).
			SetInt("sdpst_nodes", int64(res.Tree.NumNodes())).
			End()

		t1 := time.Now()
		races := det.Races()
		mRacesFound.Add(int64(len(races)))
		if opts.UseTraceFiles {
			ioSpan := iterSpan.Child("trace-io")
			var buf bytes.Buffer
			err = guard.Protect("trace-io", func() error {
				opts.Meter.SetPhase("trace-io")
				if err := faults.Inject(faults.TraceIO); err != nil {
					return err
				}
				if err := race.WriteTrace(&buf, races); err != nil {
					return err
				}
				rep.TraceBytes += buf.Len()
				var rerr error
				races, rerr = race.ReadTrace(&buf, res.Tree)
				return rerr
			})
			ioSpan.SetInt("trace_bytes", int64(buf.Len())).End()
			if err != nil {
				return iterErr(err)
			}
		}

		if opts.OnRaces != nil {
			opts.OnRaces(races)
		}
		it := Iteration{
			Races:      len(races),
			SDPSTNodes: res.Tree.NumNodes(),
			DetectTime: detectTime,
		}
		if len(races) == 0 {
			it.RepairTime = time.Since(t1)
			rep.Iterations = append(rep.Iterations, it)
			rep.Output = res.Output
			if opts.Explain != nil {
				opts.Explain.Iterations = append(opts.Explain.Iterations,
					provenance.Iteration{N: iter, CPL: provCPL(res.Tree)})
				opts.Explain.Converged = true
				opts.Explain.Degraded = rep.DegradedReason
			}
			iterSpan.SetInt("races", 0).End()
			return rep, nil
		}

		tPlace := time.Now()
		groupSpan := iterSpan.Child("group-nslca")
		var groups, prunedGroups []*group
		err = guard.Protect("group-nslca", func() error {
			opts.Meter.SetPhase("group-nslca")
			if err := faults.Inject(faults.GroupNSLCA); err != nil {
				return err
			}
			groups = groupByNSLCA(races)
			if opts.MHP != nil {
				groups, prunedGroups = pruneSerialGroups(groups, opts.MHP)
			}
			return nil
		})
		groupSpan.SetInt("groups", int64(len(groups))).End()
		if err != nil {
			return iterErr(err)
		}
		it.NSLCAs = len(groups)
		// Paper §6 steps 3(d)-(f): placements inserted for an earlier
		// NS-LCA can fix later groups' races (recursive programs visit
		// the same static code at many dynamic nodes, and skewed
		// instances may prefer a different — overlapping — placement).
		// We therefore accept a group's placements only when they are
		// identical to or disjoint from those already chosen; skipped
		// groups are re-examined by the next detection run, which sees
		// the updated program.
		placeSpan := iterSpan.Child("dp-place")
		var placements []Placement
		var outcomes []groupOutcome
		err = guard.Protect("dp-place", func() error {
			opts.Meter.SetPhase("dp-place")
			if err := faults.Inject(faults.DPPlace); err != nil {
				return err
			}
			var reason string
			var perr error
			placements, outcomes, it.DPStates, reason, perr = placeGroups(groups, opts.MaxGraph, opts.Meter, opts.Workers, placeSpan, nil)
			if reason != "" {
				rep.Degraded = true
				if rep.DegradedReason == "" {
					rep.DegradedReason = reason
				}
			}
			return perr
		})
		placeSpan.SetInt("dp_states", it.DPStates).
			SetInt("placements", int64(len(placements))).
			End()
		if err != nil {
			return iterErr(err)
		}
		it.PlaceTime = time.Since(tPlace)
		mStagePlaceNs.Observe(it.PlaceTime.Nanoseconds())
		if opts.Explain != nil {
			pit := provenance.Iteration{N: iter, Races: provRaces(races), CPL: provCPL(res.Tree)}
			for _, o := range outcomes {
				pit.Groups = append(pit.Groups, provGroup(o))
			}
			for _, pg := range prunedGroups {
				pit.Groups = append(pit.Groups, provPruned(pg))
			}
			opts.Explain.Iterations = append(opts.Explain.Iterations, pit)
		}
		if len(placements) == 0 {
			return iterErr(fmt.Errorf("repair: %d races but no placements computed", len(races)))
		}

		tRewrite := time.Now()
		rewriteSpan := iterSpan.Child("rewrite")
		var applied []AppliedRange
		err = guard.Protect("rewrite", func() error {
			opts.Meter.SetPhase("rewrite")
			if err := faults.Inject(faults.Rewrite); err != nil {
				return err
			}
			var rerr error
			applied, rerr = applyPlacements(prog, placements)
			return rerr
		})
		if err != nil {
			rewriteSpan.End()
			return iterErr(err)
		}
		inserted := len(applied)
		rewriteSpan.SetInt("finishes_inserted", int64(inserted)).End()
		it.RewriteTime = time.Since(tRewrite)
		mStageRewriteNs.Observe(it.RewriteTime.Nanoseconds())
		mInserted.Add(int64(inserted))
		it.Placements = inserted
		it.Applied = applied
		it.RepairTime = time.Since(t1)
		rep.Inserted += inserted
		rep.Iterations = append(rep.Iterations, it)
		iterSpan.SetInt("races", int64(it.Races)).
			SetInt("finishes_inserted", int64(inserted)).
			End()
	}
}

// repairReplay is the capture-once/analyze-many loop. Iteration 0
// semantics-checks the program and records the event-trace IR from one
// instrumented execution; every detection round (including the first)
// replays that trace into a detector engine, with the finish scopes
// accumulated so far injected virtually. The program text is only
// touched once, on exit, when the accumulated scope set is applied.
func repairReplay(prog *ast.Program, opts Options) (*Report, error) {
	rep := &Report{}
	root := opts.ParentSpan.Child("repair")
	if opts.ParentSpan == nil {
		root = opts.Tracer.Start("repair")
	}
	defer func() {
		root.SetInt("iterations", int64(len(rep.Iterations))).
			SetInt("races_total", int64(rep.TotalRaces())).
			SetInt("finishes_inserted", int64(rep.Inserted)).
			End()
	}()

	var (
		captured *interp.Result
		tr       *trace.Trace
		info     *sem.Info
		// virtual is the accumulated finish-scope set, kept canonical
		// (deduplicated, partial overlaps merged) in the coordinates of
		// the original program.
		virtual []trace.FinishRange
	)

	// finish materializes the accumulated virtual scopes as real finish
	// statements and records the applied insertions on the last
	// iteration, so Replay can re-apply them to a fresh parse.
	finish := func() error {
		rep.Inserted = 0
		if len(virtual) == 0 {
			return nil
		}
		placements, err := virtualPlacements(prog, virtual)
		if err != nil {
			return err
		}
		applied, err := applyPlacements(prog, placements)
		if err != nil {
			return err
		}
		mInserted.Add(int64(len(applied)))
		rep.Inserted = len(applied)
		if n := len(rep.Iterations); n > 0 {
			rep.Iterations[n-1].Applied = applied
		}
		return nil
	}

	for iter := 0; ; iter++ {
		if iter >= opts.MaxIterations {
			remaining := 0
			if n := len(rep.Iterations); n > 0 {
				remaining = rep.Iterations[n-1].Races
			}
			// Mirror the legacy loop, which leaves partial repairs
			// applied when the bound trips.
			if err := finish(); err != nil {
				return rep, err
			}
			return rep, &MaxIterationsError{Iterations: iter, RemainingRaces: remaining}
		}
		opts.Meter.SetPhase("repair")
		if err := opts.Meter.Check(); err != nil {
			_ = finish()
			return rep, err
		}
		mIterations.Inc()
		iterSpan := root.Child("iteration").SetInt("n", int64(iter))
		iterErr := func(err error) (*Report, error) {
			// Keep prog in the same state the legacy loop would leave it:
			// scopes committed by completed iterations are applied.
			_ = finish()
			iterSpan.SetStr("error", err.Error()).End()
			return rep, err
		}

		if iter == 0 {
			semSpan := iterSpan.Child("sem-check")
			var err error
			info, err = sem.Check(prog)
			semSpan.End()
			if err != nil {
				return iterErr(fmt.Errorf("repair: program invalid: %w", err))
			}
		}

		detSpan := iterSpan.Child("detect").
			SetStr("variant", opts.Variant.String()).
			SetStr("engine", opts.Engine.String())
		t0 := time.Now()
		// With analysis parallelism requested, the first round streams:
		// capture and analysis overlap, consuming trace chunks as the
		// recorder seals them. Later rounds replay the completed capture.
		streamed := iter == 0 && opts.Workers > 1
		if iter == 0 && !streamed {
			capSpan := detSpan.Child("trace-capture")
			err := guard.Protect("detect", func() error {
				var cerr error
				captured, tr, cerr = race.Capture(info, opts.Meter)
				return cerr
			})
			if tr != nil {
				capSpan.SetInt("events", int64(tr.Len()))
			}
			capSpan.End()
			if err != nil {
				detSpan.End()
				return iterErr(fmt.Errorf("repair: execution failed: %w", err))
			}
		}

		eng := newRepairEngine(opts)
		analyzeParent := detSpan
		var replaySpan *obs.Span
		if iter > 0 {
			// Later rounds never re-execute: the captured trace is
			// replayed with the updated scope set.
			replaySpan = detSpan.Child("trace-replay")
			mTraceReplays.Inc()
			analyzeParent = replaySpan
		}
		engSpan := analyzeParent.Child("detect/" + eng.Name())
		if opts.Workers > 1 && opts.Engine == race.EngineBoth {
			engSpan.SetInt("workers", int64(opts.Workers))
		}
		if streamed {
			engSpan.SetInt("streamed", 1)
		}
		var rr *trace.Result
		err := guard.Protect("detect", func() error {
			var aerr error
			if streamed {
				captured, tr, rr, aerr = race.CaptureAnalyzeStreamed(info, virtual, eng, opts.Meter, false, opts.Workers)
			} else {
				rr, aerr = race.AnalyzeParallel(tr, info.Prog, virtual, eng, opts.Meter, false, opts.Workers)
			}
			return aerr
		})
		if streamed && tr != nil {
			engSpan.SetInt("events", int64(tr.Len()))
		}
		engSpan.End()
		if replaySpan != nil {
			replaySpan.End()
		}
		if err != nil {
			detSpan.End()
			return iterErr(fmt.Errorf("repair: execution failed: %w", err))
		}
		if c, ok := eng.(race.Checker); ok {
			if cerr := c.Check(); cerr != nil {
				detSpan.End()
				return iterErr(fmt.Errorf("repair: %w", cerr))
			}
		}
		detectTime := time.Since(t0)
		mStageDetectNs.Observe(detectTime.Nanoseconds())
		races := eng.Races()
		if rel, ok := eng.(race.Releaser); ok {
			// The resolved race slice owns its storage and stays valid; the
			// engine's shadow structures go back to the reuse pool for the
			// next round's detector.
			rel.Release()
		}
		if len(races) == 0 {
			detSpan.Rename("verify")
		}
		detSpan.SetInt("races", int64(len(races))).
			SetInt("sdpst_nodes", int64(rr.Tree.NumNodes())).
			End()

		t1 := time.Now()
		mRacesFound.Add(int64(len(races)))
		if opts.UseTraceFiles {
			ioSpan := iterSpan.Child("trace-io")
			var buf bytes.Buffer
			err = guard.Protect("trace-io", func() error {
				opts.Meter.SetPhase("trace-io")
				if err := faults.Inject(faults.TraceIO); err != nil {
					return err
				}
				if err := race.WriteTrace(&buf, races); err != nil {
					return err
				}
				rep.TraceBytes += buf.Len()
				var rerr error
				races, rerr = race.ReadTrace(&buf, rr.Tree)
				return rerr
			})
			ioSpan.SetInt("trace_bytes", int64(buf.Len())).End()
			if err != nil {
				return iterErr(err)
			}
		}

		if opts.OnRaces != nil {
			opts.OnRaces(races)
		}
		it := Iteration{
			Races:      len(races),
			SDPSTNodes: rr.Tree.NumNodes(),
			DetectTime: detectTime,
		}
		if len(races) == 0 {
			// Finishes are free in the cost model, so the capture run's
			// output is the repaired program's output.
			rep.Output = captured.Output
			if opts.Explain != nil {
				opts.Explain.Iterations = append(opts.Explain.Iterations,
					provenance.Iteration{N: iter, CPL: provCPL(rr.Tree)})
				opts.Explain.Converged = true
				opts.Explain.Degraded = rep.DegradedReason
			}
			tRewrite := time.Now()
			rewriteSpan := iterSpan.Child("rewrite")
			rep.Iterations = append(rep.Iterations, it)
			err = guard.Protect("rewrite", func() error { return finish() })
			rewriteSpan.SetInt("finishes_inserted", int64(rep.Inserted)).End()
			last := &rep.Iterations[len(rep.Iterations)-1]
			last.RewriteTime = time.Since(tRewrite)
			last.RepairTime = time.Since(t1)
			if err != nil {
				iterSpan.SetStr("error", err.Error()).End()
				return rep, err
			}
			iterSpan.SetInt("races", 0).End()
			return rep, nil
		}

		tPlace := time.Now()
		groupSpan := iterSpan.Child("group-nslca")
		var groups, prunedGroups []*group
		err = guard.Protect("group-nslca", func() error {
			opts.Meter.SetPhase("group-nslca")
			if err := faults.Inject(faults.GroupNSLCA); err != nil {
				return err
			}
			groups = groupByNSLCA(races)
			if opts.MHP != nil {
				groups, prunedGroups = pruneSerialGroups(groups, opts.MHP)
			}
			return nil
		})
		groupSpan.SetInt("groups", int64(len(groups))).End()
		if err != nil {
			return iterErr(err)
		}
		it.NSLCAs = len(groups)
		placeSpan := iterSpan.Child("dp-place")
		var placements []Placement
		var outcomes []groupOutcome
		// Non-finish strategies evaluate per-group alternatives against
		// this round's accumulated virtual scope set, probing candidate
		// repairs by replaying the captured trace.
		var selector func(*group, []Placement) ([]Placement, *strategyChoice)
		if opts.Strategy != StrategyFinish {
			ev := &strategyEvaluator{
				tr:       tr,
				info:     info,
				prog:     info.Prog,
				base:     virtual,
				meter:    opts.Meter,
				strategy: opts.Strategy,
			}
			selector = ev.choose
		}
		err = guard.Protect("dp-place", func() error {
			opts.Meter.SetPhase("dp-place")
			if err := faults.Inject(faults.DPPlace); err != nil {
				return err
			}
			var reason string
			var perr error
			placements, outcomes, it.DPStates, reason, perr = placeGroups(groups, opts.MaxGraph, opts.Meter, opts.Workers, placeSpan, selector)
			if reason != "" {
				rep.Degraded = true
				if rep.DegradedReason == "" {
					rep.DegradedReason = reason
				}
			}
			return perr
		})
		placeSpan.SetInt("dp_states", it.DPStates).
			SetInt("placements", int64(len(placements))).
			End()
		if err != nil {
			return iterErr(err)
		}
		it.PlaceTime = time.Since(tPlace)
		mStagePlaceNs.Observe(it.PlaceTime.Nanoseconds())
		if opts.Explain != nil {
			pit := provenance.Iteration{N: iter, Races: provRaces(races), CPL: provCPL(rr.Tree)}
			for _, o := range outcomes {
				pit.Groups = append(pit.Groups, provGroup(o))
			}
			for _, pg := range prunedGroups {
				pit.Groups = append(pit.Groups, provPruned(pg))
			}
			opts.Explain.Iterations = append(opts.Explain.Iterations, pit)
		}
		if len(placements) == 0 {
			return iterErr(fmt.Errorf("repair: %d races but no placements computed", len(races)))
		}

		// The "rewrite" of this loop never touches the AST mid-flight: it
		// folds the round's placements into the virtual scope set that
		// the next replay will inject.
		tRewrite := time.Now()
		rewriteSpan := iterSpan.Child("rewrite")
		var added int
		err = guard.Protect("rewrite", func() error {
			opts.Meter.SetPhase("rewrite")
			if err := faults.Inject(faults.Rewrite); err != nil {
				return err
			}
			virtual, added = mergeVirtual(virtual, placements)
			return nil
		})
		if err != nil {
			rewriteSpan.End()
			return iterErr(err)
		}
		rewriteSpan.SetInt("finishes_inserted", int64(added)).End()
		it.RewriteTime = time.Since(tRewrite)
		mStageRewriteNs.Observe(it.RewriteTime.Nanoseconds())
		it.Placements = added
		it.RepairTime = time.Since(t1)
		rep.Iterations = append(rep.Iterations, it)
		iterSpan.SetInt("races", int64(it.Races)).
			SetInt("finishes_inserted", int64(added)).
			End()
	}
}

// pruneSerialGroups splits NS-LCA groups into those with at least one
// race pair that may run in parallel according to the static oracle
// (kept) and those provably serial (pruned). With a sound oracle the
// pruned list is always empty (a dynamic race implies static MHP), so
// the repaired output is unchanged; the counter records how often the
// cross-check fired anyway.
func pruneSerialGroups(groups []*group, mhp func(src, dst *dpst.Node) bool) (kept, pruned []*group) {
	kept = groups[:0]
	for _, g := range groups {
		parallel := false
		for _, rc := range g.races {
			if mhp(rc.Src, rc.Dst) {
				parallel = true
				break
			}
		}
		if parallel {
			kept = append(kept, g)
		} else {
			mPrunedSerial.Inc()
			pruned = append(pruned, g)
		}
	}
	return kept, pruned
}

// newRepairEngine builds the detector engine for one analysis round,
// honoring a custom Oracle for the ESP-Bags side. With the stock oracle,
// Engine Both + Workers > 1 selects the fused dual-oracle engine: one
// shadow scan cross-checking both backends per ordering query, which
// AnalyzeParallel then shards across workers.
func newRepairEngine(opts Options) race.Engine {
	switch opts.Engine {
	case race.EngineVC:
		return race.NewEngine(race.EngineVC, opts.Variant)
	case race.EngineBoth:
		if opts.Workers > 1 && opts.defaultOracle {
			return race.NewFused(opts.Variant)
		}
		return race.NewDifferential(
			race.WithName(race.New(opts.Variant, opts.Oracle()), "espbags"),
			race.NewEngine(race.EngineVC, opts.Variant),
		)
	default:
		return race.WithName(race.New(opts.Variant, opts.Oracle()), "espbags")
	}
}

// virtualPlacements resolves a virtual scope set back to AST blocks.
func virtualPlacements(prog *ast.Program, virtual []trace.FinishRange) ([]Placement, error) {
	var ps []Placement
	for _, f := range virtual {
		b := ast.FindBlock(prog, f.BlockID)
		if b == nil {
			return nil, fmt.Errorf("repair: no block with ID %d", f.BlockID)
		}
		ps = append(ps, Placement{Block: b, Lo: f.Lo, Hi: f.Hi, Kind: f.Kind, Class: f.Class})
	}
	return ps, nil
}

// span is a statement range with its isolated lock class, the unit
// mergeVirtual canonicalizes per (block, kind).
type span struct {
	lo, hi int
	class  int
}

// mergeVirtual folds newly computed placements into the accumulated
// virtual scope set and re-canonicalizes per block and kind: exact
// duplicates are dropped and partially overlapping same-kind ranges are
// merged, since trace.Replay nests scopes and cannot represent improper
// overlap. Ranges of different kinds are never merged; they cannot
// improperly overlap either, because isolated ranges cover a recognized
// update region inside a single maximal step (disjoint from or nested
// in anything else). When ranges merge, equal lock classes are kept and
// differing ones degrade to class 0 (the global lock) conservatively.
// It returns the new set and the number of ranges not present before.
func mergeVirtual(virtual []trace.FinishRange, placements []Placement) ([]trace.FinishRange, int) {
	type bk struct {
		id   int
		kind trace.RangeKind
	}
	byBlock := map[bk][]span{}
	var order []bk
	add := func(k bk, s span) {
		if _, ok := byBlock[k]; !ok {
			order = append(order, k)
		}
		byBlock[k] = append(byBlock[k], s)
	}
	for _, f := range virtual {
		add(bk{f.BlockID, f.Kind}, span{f.Lo, f.Hi, f.Class})
	}
	for _, p := range placements {
		add(bk{p.Block.ID, p.Kind}, span{p.Lo, p.Hi, p.Class})
	}
	prev := map[trace.FinishRange]bool{}
	for _, f := range virtual {
		prev[f] = true
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].id != order[j].id {
			return order[i].id < order[j].id
		}
		return order[i].kind < order[j].kind
	})
	var out []trace.FinishRange
	added := 0
	for _, k := range order {
		for _, s := range canonicalSpans(byBlock[k]) {
			f := trace.FinishRange{BlockID: k.id, Lo: s.lo, Hi: s.hi, Kind: k.kind, Class: s.class}
			out = append(out, f)
			if !prev[f] {
				added++
			}
		}
	}
	return out, added
}

// mergeClass combines the lock classes of two ranges being merged or
// deduplicated: equal classes survive, differing ones collapse to the
// global lock.
func mergeClass(a, b int) int {
	if a == b {
		return a
	}
	return 0
}

// canonicalSpans deduplicates ranges and merges partial overlaps until
// only disjoint or strictly nested ranges remain, combining lock
// classes per mergeClass.
func canonicalSpans(spans []span) []span {
	idx := make(map[[2]int]int)
	var rs []span
	for _, s := range spans {
		k := [2]int{s.lo, s.hi}
		if i, ok := idx[k]; ok {
			rs[i].class = mergeClass(rs[i].class, s.class)
			continue
		}
		idx[k] = len(rs)
		rs = append(rs, s)
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(rs) && !changed; i++ {
			for j := i + 1; j < len(rs) && !changed; j++ {
				a, c := rs[i], rs[j]
				if a.lo > c.lo {
					a, c = c, a
				}
				overlap := c.lo <= a.hi
				nested := overlap && c.hi <= a.hi
				if overlap && !nested && a != c {
					rs[i] = span{a.lo, max(a.hi, c.hi), mergeClass(a.class, c.class)}
					rs = append(rs[:j], rs[j+1:]...)
					changed = true
				}
			}
		}
	}
	// A merge can produce a duplicate of a surviving range; drop the
	// exact duplicates left behind (combining classes again).
	out := rs[:0]
	seen := make(map[[2]int]int, len(rs))
	for _, s := range rs {
		k := [2]int{s.lo, s.hi}
		if i, ok := seen[k]; ok {
			out[i].class = mergeClass(out[i].class, s.class)
			continue
		}
		seen[k] = len(out)
		out = append(out, s)
	}
	return out
}

// applyPlacements rewrites the program, wrapping each placement's
// statement range in a synthesized finish or isolated. Identical
// placements are deduplicated, partially overlapping same-kind ranges
// in one block are merged, and nested ranges are applied
// innermost-first. It returns the applied insertions in replayable
// form.
func applyPlacements(prog *ast.Program, placements []Placement) ([]AppliedRange, error) {
	byBlock := make(map[*ast.Block][]krange)
	var blocks []*ast.Block
	for _, p := range placements {
		if p.Lo < 0 || p.Hi >= len(p.Block.Stmts) || p.Lo > p.Hi {
			return nil, fmt.Errorf("repair: placement %v out of range (block has %d stmts)", p, len(p.Block.Stmts))
		}
		if _, seen := byBlock[p.Block]; !seen {
			blocks = append(blocks, p.Block)
		}
		byBlock[p.Block] = append(byBlock[p.Block], krange{p.Lo, p.Hi, p.Kind, p.Class})
	}
	// Deterministic block order for Replay: by block ID.
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })

	var applied []AppliedRange
	for _, b := range blocks {
		rs, err := applyToBlock(prog, b, byBlock[b])
		if err != nil {
			return applied, err
		}
		applied = append(applied, rs...)
	}
	return applied, nil
}

// Replay re-applies recorded insertions to another parse of a
// structurally identical program (e.g. the same benchmark rendered at a
// different input size): block IDs are assigned deterministically by the
// parser, so the recorded coordinates transfer.
func Replay(prog *ast.Program, iterations []Iteration) error {
	for _, it := range iterations {
		for _, a := range it.Applied {
			b := ast.FindBlock(prog, a.BlockID)
			if b == nil {
				return fmt.Errorf("repair: replay: no block with ID %d", a.BlockID)
			}
			if a.Lo < 0 || a.Hi >= len(b.Stmts) || a.Lo > a.Hi {
				return fmt.Errorf("repair: replay range %d..%d out of bounds in block %d", a.Lo, a.Hi, a.BlockID)
			}
			wrapRange(prog, b, a.Lo, a.Hi, a.Kind, a.Class)
		}
	}
	return nil
}

// wrapRange wraps statements lo..hi of b in a synthesized finish or
// isolated, per kind. Isolated wrappers carry the inferred lock class
// (derived state: it steers the runtime lock choice and the detectors'
// exclusion predicate, and is never printed).
func wrapRange(prog *ast.Program, b *ast.Block, lo, hi int, kind trace.RangeKind, class int) {
	wrapped := make([]ast.Stmt, hi-lo+1)
	copy(wrapped, b.Stmts[lo:hi+1])
	var wrap ast.Stmt
	if kind == trace.RangeIsolated {
		wrap = &ast.IsolatedStmt{
			Body:        prog.NewBlock(wrapped[0].Pos(), wrapped),
			IsoPos:      wrapped[0].Pos(),
			Synthesized: true,
			LockClass:   class,
		}
	} else {
		wrap = &ast.FinishStmt{
			Body:        prog.NewBlock(wrapped[0].Pos(), wrapped),
			FinishPos:   wrapped[0].Pos(),
			Synthesized: true,
		}
	}
	rest := append([]ast.Stmt{}, b.Stmts[:lo]...)
	rest = append(rest, wrap)
	rest = append(rest, b.Stmts[hi+1:]...)
	b.Stmts = rest
}

// krange is a statement range with its scope kind and isolated lock
// class.
type krange struct {
	lo, hi int
	kind   trace.RangeKind
	class  int
}

func applyToBlock(prog *ast.Program, b *ast.Block, ranges []krange) ([]AppliedRange, error) {
	// Deduplicate by (range, kind); identical ranges that disagree on
	// lock class collapse to the global lock conservatively.
	type rk struct {
		lo, hi int
		kind   trace.RangeKind
	}
	idx := make(map[rk]int)
	var rs []krange
	for _, r := range ranges {
		k := rk{r.lo, r.hi, r.kind}
		if i, ok := idx[k]; ok {
			rs[i].class = mergeClass(rs[i].class, r.class)
			continue
		}
		idx[k] = len(rs)
		rs = append(rs, r)
	}
	// Merge partial overlaps of the same kind until only disjoint or
	// strictly nested ranges remain. Cross-kind partial overlap cannot
	// arise: isolated ranges cover one update region inside a single
	// maximal step, so against any other range they are disjoint or
	// nested.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(rs) && !changed; i++ {
			for j := i + 1; j < len(rs) && !changed; j++ {
				a, c := rs[i], rs[j]
				if a.kind != c.kind {
					continue
				}
				if a.lo > c.lo {
					a, c = c, a
				}
				overlap := c.lo <= a.hi
				nested := overlap && c.hi <= a.hi
				if overlap && !nested && a != c {
					rs[i] = krange{a.lo, max(a.hi, c.hi), a.kind, mergeClass(a.class, c.class)}
					rs = append(rs[:j], rs[j+1:]...)
					changed = true
				}
			}
		}
	}
	// Innermost (smallest) first so outer indices can be adjusted as
	// inner ranges collapse into single wrapper statements. On identical
	// ranges the isolated goes first (ends up innermost), matching the
	// replay nesting where the finish scope opens outside the isolated.
	sort.Slice(rs, func(i, j int) bool {
		li, lj := rs[i].hi-rs[i].lo, rs[j].hi-rs[j].lo
		if li != lj {
			return li < lj
		}
		if rs[i].lo != rs[j].lo {
			return rs[i].lo < rs[j].lo
		}
		return rs[i].kind > rs[j].kind
	})

	var applied []AppliedRange
	for i := 0; i < len(rs); i++ {
		lo, hi := rs[i].lo, rs[i].hi
		if lo < 0 || hi >= len(b.Stmts) || lo > hi {
			return applied, fmt.Errorf("repair: merged range %d..%d out of bounds in block %d", lo, hi, b.ID)
		}
		wrapRange(prog, b, lo, hi, rs[i].kind, rs[i].class)
		applied = append(applied, AppliedRange{BlockID: b.ID, Lo: lo, Hi: hi, Kind: rs[i].kind, Class: rs[i].class})

		shrink := hi - lo
		for j := i + 1; j < len(rs); j++ {
			switch {
			case rs[j].hi < lo:
				// Entirely to the left: unaffected.
			case rs[j].lo > hi:
				rs[j].lo -= shrink
				rs[j].hi -= shrink
			case rs[j].lo <= lo && rs[j].hi >= hi:
				rs[j].hi -= shrink
			default:
				return applied, fmt.Errorf("repair: conflicting ranges in block %d", b.ID)
			}
		}
	}
	return applied, nil
}
