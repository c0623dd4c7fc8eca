package repair

import (
	"bytes"
	"fmt"
	"sort"
	"time"

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
	// MaxIterations bounds repair/re-detect rounds (0 =
	// guard.DefaultMaxIterations).
	MaxIterations int
	// UseTraceFiles round-trips every round's races through the binary
	// race-trace encoding, mirroring the paper's detector/analyzer file
	// boundary, and records a trace-io span per round. It does not change
	// the races or the repair. Off by default; hjbench -table 2 turns it
	// on, because the paper's timings include reading trace files.
	UseTraceFiles bool
	// Tracer records per-phase spans of every iteration (detect/verify,
	// trace-io, group-nslca, dp-place, rewrite), plus Repair's sem-check.
	// Nil disables tracing at zero cost.
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
	// EngineBoth runs the fused engine: one shadow scan whose every
	// ordering query both the ESP-Bags and the vector-clock oracle
	// answer, failing the repair with a *race.DisagreementError on the
	// first query they disagree on.
	Engine race.EngineKind
	// Workers sizes the worker pool that solves the independent
	// per-NS-LCA placement problems; 0 or 1 solves them in turn. It does
	// not change how detection runs: every round is one serial shadow
	// scan, and the first round overlaps its analysis with the capture
	// whenever the trace fills a full-size chunk (race.CaptureAnalyze),
	// at any worker count. Results are accumulated in deterministic
	// NS-LCA order, so the repaired program is byte-identical for any
	// worker count.
	Workers int
	// OnRaces, when set, observes every detection round's race list
	// before any grouping or rewriting. The static-analysis integration
	// uses it to mark which static race candidates the test execution
	// actually exercised (the coverage-gap report of hjrepair -vet).
	OnRaces func([]*race.Race)
	// Explain, when non-nil, receives the structured provenance of the
	// repair: per iteration, the NS-LCA groups with their races and DP
	// placement decisions, and the tree's critical path. Recording costs
	// one cpl.Analyze per round plus the conversion of groups to their
	// provenance form; leave nil on hot paths.
	Explain *provenance.Explain
	// Strategy selects how race groups are eliminated: finish insertion
	// (the zero value — the paper's repair and the library default),
	// isolated wrapping of commutative updates, or per-group automatic
	// choice by post-repair critical path.
	Strategy Strategy
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
	// Races found by this round's detection run (0 in the final,
	// race-free confirmation round).
	Races int
	// NSLCAs is the number of race groups (distinct non-scope LCAs).
	NSLCAs int
	// Placements counts the scopes this round added to the accumulated
	// scope set.
	Placements int
	// SDPSTNodes is the size of this round's S-DPST.
	SDPSTNodes int
	// DPStates counts the dynamic-programming states explored by this
	// round's finish placements.
	DPStates int64
	// Applied lists, on the last iteration only, every scope insertion
	// of the repair in application order, for Replay.
	Applied []AppliedRange
	// DetectTime covers the detection round (the capture in round 0,
	// then the replay and race analysis); RepairTime covers trace I/O,
	// the NS-LCA grouping, the placement and the rewrite. PlaceTime and
	// RewriteTime break RepairTime down into the grouping+DP phase and
	// the rewrite phase.
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

// Repair semantics-checks prog, recording a "sem-check" span, and runs
// RepairChecked on it. It serves callers that hold a bare AST; a program
// that is already checked goes to RepairChecked directly.
func Repair(prog *ast.Program, opts Options) (*Report, error) {
	sp := opts.ParentSpan.Child("sem-check")
	if opts.ParentSpan == nil {
		sp = opts.Tracer.Start("sem-check")
	}
	info, err := sem.Check(prog)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("repair: program invalid: %w", err)
	}
	return RepairChecked(info, opts)
}

// RepairChecked runs the test-driven repair loop on the checked program
// info.Prog, mutating it in place: detect races on the canonical
// execution, compute finish placements, and repeat until a detection
// round is race-free. The instrumented program executes exactly once:
// iteration 0 records the event-trace IR, and every detection round
// (including the first) replays that trace into a detector engine, with
// the finish scopes accumulated so far injected virtually. The program
// text is only touched once, on exit, when the accumulated scope set is
// applied. info stays valid for the rewritten program: the inserted
// finish and isolated bodies are scope-transparent (see package sem).
func RepairChecked(info *sem.Info, opts Options) (*Report, error) {
	if opts.Strategy < StrategyFinish || opts.Strategy > StrategyAuto {
		return nil, fmt.Errorf("repair: unknown strategy %d", opts.Strategy)
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = guard.DefaultMaxIterations
	}
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
		placements, err := virtualPlacements(info.Prog, virtual)
		if err != nil {
			return err
		}
		applied, err := applyPlacements(info.Prog, placements)
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
			// Leave the partial repair applied when the bound trips.
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
			// Scopes committed by completed iterations stay applied.
			_ = finish()
			iterSpan.SetStr("error", err.Error()).End()
			return rep, err
		}

		detSpan := iterSpan.Child("detect").
			SetStr("variant", opts.Variant.String()).
			SetStr("engine", opts.Engine.String())
		t0 := time.Now()
		eng := race.NewEngine(opts.Engine, opts.Variant)
		var rr *trace.Result
		var err error
		if iter == 0 {
			// The one execution: capture, with the analysis overlapping it
			// once the trace is long enough (race.CaptureAnalyze).
			err = guard.Protect("detect", func() error {
				var aerr error
				captured, tr, rr, aerr = race.CaptureAnalyze(info, virtual, eng, opts.Meter, false, detSpan)
				return aerr
			})
		} else {
			// Later rounds never re-execute: the captured trace is
			// replayed with the updated scope set.
			replaySpan := detSpan.Child("trace-replay")
			mTraceReplays.Inc()
			engSpan := replaySpan.Child("detect/" + eng.Name())
			err = guard.Protect("detect", func() error {
				var aerr error
				rr, aerr = race.Analyze(tr, info.Prog, virtual, eng, opts.Meter, false)
				return aerr
			})
			engSpan.End()
			replaySpan.End()
		}
		if err != nil {
			detSpan.End()
			return iterErr(fmt.Errorf("repair: execution failed: %w", err))
		}
		if cerr := eng.Check(); cerr != nil {
			detSpan.End()
			return iterErr(fmt.Errorf("repair: %w", cerr))
		}
		detectTime := time.Since(t0)
		mStageDetectNs.Observe(detectTime.Nanoseconds())
		races := eng.Races()
		// The resolved race slice owns its storage and stays valid; the
		// engine's shadow structures go back to the reuse pool for the
		// next round's detector.
		eng.Release()
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
			// ReadTrace drains buf, so its length is taken after the write.
			n := 0
			err = guard.Protect("trace-io", func() error {
				opts.Meter.SetPhase("trace-io")
				if err := faults.Inject(faults.TraceIO); err != nil {
					return err
				}
				if err := race.WriteTrace(&buf, races); err != nil {
					return err
				}
				n = buf.Len()
				var rerr error
				races, rerr = race.ReadTrace(&buf, rr.Tree)
				return rerr
			})
			rep.TraceBytes += n
			ioSpan.SetInt("trace_bytes", int64(n)).End()
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
		var groups []*group
		err = guard.Protect("group-nslca", func() error {
			opts.Meter.SetPhase("group-nslca")
			if err := faults.Inject(faults.GroupNSLCA); err != nil {
				return err
			}
			groups = groupByNSLCA(races)
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
			placements, outcomes, reason, perr = placeGroups(groups, opts.Meter, opts.Workers, placeSpan, selector)
			if reason != "" {
				rep.Degraded = true
				if rep.DegradedReason == "" {
					rep.DegradedReason = reason
				}
			}
			return perr
		})
		var dpVertices int64
		for _, o := range outcomes {
			it.DPStates += o.info.States
			dpVertices += int64(o.info.DPVertices)
		}
		placeSpan.SetInt("dp_states", it.DPStates).
			SetInt("dp_vertices", dpVertices).
			SetInt("placements", int64(len(placements))).
			End()
		if err != nil {
			return iterErr(err)
		}
		it.PlaceTime = time.Since(tPlace)
		mStagePlaceNs.Observe(it.PlaceTime.Nanoseconds())
		if opts.Explain != nil {
			pit := provenance.Iteration{N: iter, CPL: provCPL(rr.Tree)}
			for _, o := range outcomes {
				pit.Groups = append(pit.Groups, provGroup(o))
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
// statement range in a synthesized finish or isolated, nested ranges
// innermost-first. The placements resolve the canonical virtual scope
// set (mergeVirtual), so per block and kind they hold no duplicates
// and no partial overlaps. It returns the applied insertions in
// replayable form.
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

// applyToBlock wraps the ranges of block b.
func applyToBlock(prog *ast.Program, b *ast.Block, rs []krange) ([]AppliedRange, error) {
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
			return applied, fmt.Errorf("repair: range %d..%d out of bounds in block %d", lo, hi, b.ID)
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
