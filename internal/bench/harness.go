package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"finishrepair/internal/cpl"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/taskpar"
)

// tracer receives the per-phase spans of every harness run when set via
// SetTracer (hjbench -trace).
var tracer *obs.Tracer

// SetTracer attaches tr to all subsequent harness runs; nil detaches.
func SetTracer(tr *obs.Tracer) { tracer = tr }

// budget bounds subsequent harness repairs when set via SetBudget
// (hjbench -timeout). Each repair gets a fresh meter so the budget is
// per benchmark run, not cumulative across the suite.
var budget guard.Budget

// SetBudget applies b to all subsequent harness repairs; the zero
// Budget restores the defaults.
func SetBudget(b guard.Budget) { budget = b }

// workers bounds the analysis parallelism (engine-level concurrency and
// the per-NS-LCA DP pool) of subsequent harness repairs when set via
// SetWorkers (hjbench -j). Results are independent of the value.
var workers int

// SetWorkers applies w to all subsequent harness repairs; 0 or 1 is
// sequential.
func SetWorkers(w int) { workers = w }

// newMeter builds the per-run meter, or nil when no budget is set.
func newMeter() *guard.Meter {
	if budget == (guard.Budget{}) {
		return nil
	}
	return guard.NewMeter(nil, budget)
}

// RepairStats is one benchmark's repair-mode measurement (Tables 2-4).
type RepairStats struct {
	Name string `json:"name"`
	// SeqTime is the serial-elision runtime (HJ-Seq column).
	SeqTime time.Duration `json:"seq_time_ns"`
	// DetectTime is the first instrumented run: race detection plus
	// S-DPST construction.
	DetectTime time.Duration `json:"detect_time_ns"`
	SDPSTNodes int           `json:"sdpst_nodes"`
	Races      int           `json:"races"`
	// RepairTime sums dynamic+static finish placement and rewrite time
	// across iterations (trace I/O included, as in the paper's tool).
	RepairTime time.Duration `json:"repair_time_ns"`
	// PlaceTime and RewriteTime break RepairTime down into NS-LCA
	// grouping + DP placement vs the AST rewrite, summed over iterations.
	PlaceTime   time.Duration `json:"place_time_ns"`
	RewriteTime time.Duration `json:"rewrite_time_ns"`
	// SecondDetect is the confirming detection run (the final, race-free
	// iteration).
	SecondDetect time.Duration `json:"second_detect_ns"`
	Iterations   int           `json:"iterations"`
	Inserted     int           `json:"inserted"`
	// DPStates counts dynamic-programming states explored across all
	// placement rounds.
	DPStates int64 `json:"dp_states"`
	// RacesPerIteration lists each round's race count (the final 0 is
	// the confirmation round).
	RacesPerIteration []int `json:"races_per_iteration"`
	// OutputOK reports whether the repaired program's output equals the
	// serial elision's.
	OutputOK bool `json:"output_ok"`
	// SpanOriginal/SpanRepaired are critical path lengths (work units) of
	// the expert-written and the repaired program; equal values mean the
	// repair preserved maximal parallelism (§7.1).
	SpanOriginal int64 `json:"span_original"`
	SpanRepaired int64 `json:"span_repaired"`
	WorkOriginal int64 `json:"work_original"`
	WorkRepaired int64 `json:"work_repaired"`
	// Metrics is the delta of the process metrics registry over this
	// benchmark's run: detector, placement, scheduler, and taskpar
	// counters (the stage-level breakdown of hjbench -table 2 -json).
	Metrics []obs.Sample `json:"metrics,omitempty"`
	// Stages summarizes the per-call latency distribution of each
	// pipeline stage over this run (from the *_ns histogram deltas in
	// Metrics): p50/p95/p99 expose tail behavior the per-run totals
	// above average away.
	Stages []StageLatency `json:"stages,omitempty"`
}

// StageLatency is the distribution of one pipeline stage's per-call
// latency across a benchmark run, derived from the obs histograms.
type StageLatency struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

// stageLatencies extracts the latency histograms from a metrics delta.
func stageLatencies(samples []obs.Sample) []StageLatency {
	var out []StageLatency
	for _, s := range samples {
		if s.Kind != "histogram" || !strings.HasSuffix(s.Name, "_ns") || s.Count == 0 {
			continue
		}
		out = append(out, StageLatency{
			Stage: s.Name, Count: s.Count, MeanNs: s.Mean,
			P50Ns: s.P50, P95Ns: s.P95, P99Ns: s.P99,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// loadChecked parses and checks src.
func loadChecked(src string) (*sem.Info, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return sem.Check(prog)
}

// RunRepair strips all finishes from the benchmark (paper §7.1), repairs
// the resulting buggy program with the given detector variant, and
// collects the Table 2/3 statistics.
func RunRepair(b *Benchmark, variant race.Variant, size int) (*RepairStats, error) {
	src := b.Src(size)
	st := &RepairStats{Name: b.Name}
	before := obs.Default().Snapshot()
	bsp := tracer.Start("bench-repair").SetStr("benchmark", b.Name).SetStr("variant", variant.String())
	defer bsp.End()

	// The buggy program: every finish stripped. One check serves the
	// elision, the detection pass, the repair and the repaired span.
	info, err := loadChecked(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	ast.StripFinishes(info.Prog)

	// HJ-Seq: the serial elision runtime.
	esp := bsp.Child("seq-elision")
	t0 := time.Now()
	elideRes, err := interp.Run(info, interp.Options{Mode: interp.Elide})
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("%s elision run: %w", b.Name, err)
	}
	st.SeqTime = time.Since(t0)

	// Paper-faithful detection pass: the paper's tool builds the full
	// S-DPST without collapsing task-free scopes, so Table 2/3 node and
	// race counts come from an uncollapsed run.
	{
		det := race.NewEngine(race.EngineESPBags, variant)
		dsp := bsp.Child("detect-uncollapsed")
		t0 := time.Now()
		_, tr, err := race.Capture(info, nil)
		if err != nil {
			dsp.End()
			return nil, fmt.Errorf("%s detection: %w", b.Name, err)
		}
		rr, err := race.Analyze(tr, info.Prog, nil, det, nil, true)
		if err != nil {
			dsp.End()
			return nil, fmt.Errorf("%s detection: %w", b.Name, err)
		}
		st.DetectTime = time.Since(t0)
		st.SDPSTNodes = rr.Tree.NumNodes()
		st.Races = len(det.Races())
		det.Release()
		dsp.SetInt("races", int64(st.Races)).SetInt("sdpst_nodes", int64(st.SDPSTNodes)).End()
	}

	// Repair the buggy program (the repair loop itself uses the collapsed
	// S-DPST; see the ablation table).
	rep, err := repair.RepairChecked(info, repair.Options{Variant: variant, UseTraceFiles: true, ParentSpan: bsp, Meter: newMeter(), Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("%s repair: %w", b.Name, err)
	}
	last := rep.Iterations[len(rep.Iterations)-1]
	st.Iterations = len(rep.Iterations)
	st.Inserted = rep.Inserted
	st.SecondDetect = last.DetectTime
	st.DPStates = rep.TotalDPStates()
	for _, it := range rep.Iterations {
		st.RepairTime += it.RepairTime
		st.PlaceTime += it.PlaceTime
		st.RewriteTime += it.RewriteTime
		st.RacesPerIteration = append(st.RacesPerIteration, it.Races)
	}
	st.OutputOK = rep.Output == elideRes.Output

	// Parallelism comparison: span of the repaired vs the expert-written
	// program on the same input.
	csp := bsp.Child("parallelism-compare")
	defer csp.End()
	origInfo, err := loadChecked(src)
	if err != nil {
		return nil, err
	}
	om, err := modelMetrics(origInfo)
	if err != nil {
		return nil, fmt.Errorf("%s original instrumented run: %w", b.Name, err)
	}
	rm, err := modelMetrics(info)
	if err != nil {
		return nil, fmt.Errorf("%s repaired instrumented run: %w", b.Name, err)
	}
	st.SpanOriginal, st.SpanRepaired = om.Span, rm.Span
	st.WorkOriginal, st.WorkRepaired = om.Work, rm.Work
	st.Metrics = obs.Default().Delta(before)
	st.Stages = stageLatencies(st.Metrics)
	return st, nil
}

// RaceCounts runs both detectors once on the stripped benchmark and
// returns (SRW, MRW) race counts (Table 4). Counts use the
// paper-faithful uncollapsed S-DPST (steps at scope granularity). The
// execution is captured once and analyzed by both variants.
func RaceCounts(b *Benchmark, size int) (srw, mrw int, err error) {
	prog, err := parser.Parse(b.Src(size))
	if err != nil {
		return 0, 0, err
	}
	ast.StripFinishes(prog)
	info, err := sem.Check(prog)
	if err != nil {
		return 0, 0, err
	}
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		return 0, 0, err
	}
	for _, v := range []race.Variant{race.VariantSRW, race.VariantMRW} {
		det := race.NewEngine(race.EngineESPBags, v)
		if _, err := race.Analyze(tr, info.Prog, nil, det, nil, true); err != nil {
			return 0, 0, err
		}
		if v == race.VariantSRW {
			srw = len(det.Races())
		} else {
			mrw = len(det.Races())
		}
		det.Release()
	}
	return srw, mrw, nil
}

// PerfStats is one benchmark's Figure-16 measurement: mean execution
// times with 95%% confidence half-widths for sequential, original
// parallel, and repaired parallel versions.
type PerfStats struct {
	Name                 string
	Runs                 int
	Seq, Orig, Repaired  time.Duration
	SeqCI, OrigCI, RepCI time.Duration
	OutputOK             bool
	// Model-predicted speedups on P processors from the deterministic
	// work/span metrics (Brent: T_P >= max(T1/P, Tinf), so speedup <=
	// min(P, T1/Tinf)). Independent of the host's core count.
	ModelP                 int
	OrigModel, RepairModel float64
}

// RunPerf measures the benchmark at the given size: the serial elision,
// the expert-written parallel program, and the tool-repaired parallel
// program, each averaged over runs executions (paper: 30; pass fewer for
// quick runs). Parallel versions execute on a work-stealing pool of
// GOMAXPROCS workers.
func RunPerf(b *Benchmark, size, runs int) (*PerfStats, error) {
	if runs <= 0 {
		runs = 5
	}
	src := b.Src(size)
	ps := &PerfStats{Name: b.Name, Runs: runs}
	psp := tracer.Start("bench-perf").SetStr("benchmark", b.Name).SetInt("runs", int64(runs))
	defer psp.End()

	// Serial elision.
	elideInfo, err := loadChecked(src)
	if err != nil {
		return nil, err
	}
	ast.StripFinishes(elideInfo.Prog)
	var seqOut string
	ps.Seq, ps.SeqCI, err = timeRuns(runs, func() error {
		r, err := interp.Run(elideInfo, interp.Options{Mode: interp.Elide})
		if err == nil {
			seqOut = r.Output
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s seq: %w", b.Name, err)
	}

	exec := taskpar.NewPoolExecutor(0)
	defer exec.Shutdown()

	// Original parallel.
	origInfo, err := loadChecked(src)
	if err != nil {
		return nil, err
	}
	var origOut string
	ps.Orig, ps.OrigCI, err = timeRuns(runs, func() error {
		r, err := interp.RunParallel(origInfo, interp.ParallelOptions{Executor: exec})
		if err == nil {
			origOut = r.Output
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s original parallel: %w", b.Name, err)
	}

	// Repaired parallel: the repair is discovered on the repair-size
	// input and replayed onto the perf-size source (the placements are
	// static, so they transfer across input sizes).
	repairedSrc, err := RepairedSource(b, size)
	if err != nil {
		return nil, err
	}
	repInfo, err := loadChecked(repairedSrc)
	if err != nil {
		return nil, fmt.Errorf("%s repaired source: %w", b.Name, err)
	}
	var repOut string
	ps.Repaired, ps.RepCI, err = timeRuns(runs, func() error {
		r, err := interp.RunParallel(repInfo, interp.ParallelOptions{Executor: exec})
		if err == nil {
			repOut = r.Output
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s repaired parallel: %w", b.Name, err)
	}

	ps.OutputOK = seqOut == origOut && origOut == repOut

	// Model speedups (the paper's 12-core testbed).
	ps.ModelP = 12
	if m, err := modelMetrics(origInfo); err == nil {
		ps.OrigModel = math.Min(float64(ps.ModelP), m.Parallelism())
	}
	if m, err := modelMetrics(repInfo); err == nil {
		ps.RepairModel = math.Min(float64(ps.ModelP), m.Parallelism())
	}
	return ps, nil
}

// modelMetrics captures the canonical execution, replays it into its
// S-DPST (no detector) and returns the work/span metrics.
func modelMetrics(info *sem.Info) (cpl.Metrics, error) {
	tree, err := race.Tree(info)
	if err != nil {
		return cpl.Metrics{}, err
	}
	return cpl.Analyze(tree), nil
}

func timeRuns(runs int, f func() error) (mean, ci95 time.Duration, err error) {
	durs := make([]float64, runs)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		durs[i] = float64(time.Since(t0))
	}
	var sum float64
	for _, d := range durs {
		sum += d
	}
	m := sum / float64(runs)
	var sq float64
	for _, d := range durs {
		sq += (d - m) * (d - m)
	}
	sd := 0.0
	if runs > 1 {
		sd = math.Sqrt(sq / float64(runs-1))
	}
	half := 1.96 * sd / math.Sqrt(float64(runs))
	return time.Duration(m), time.Duration(half), nil
}
