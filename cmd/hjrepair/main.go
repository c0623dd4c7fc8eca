// Command hjrepair runs the test-driven data-race repair tool on an
// HJ-lite program: it executes the program on its built-in input,
// detects all data races of the canonical sequential execution, inserts
// finish statements that eliminate them while maximizing parallelism,
// and prints the repaired source.
//
// Usage:
//
//	hjrepair [-detector mrw|srw|espbags|vc|both] [-strategy finish|isolated|auto] ("iso" = "isolated")
//	         [-j N] [-o out.hj]
//	         [-quiet] [-max-iter N] [-timeout D] [-max-dp-states N]
//	         [-vet] [-explain out.json]
//	         [-witness] [-adversary K] [-sched-seed N]
//	         [-trace out.json] [-jsonl out.jsonl] [-metrics] [-v] program.hj
//
// -detector picks the detector: "mrw" (default) and "srw" select the
// ESP-Bags variant; "espbags", "vc", and "both" select the analysis
// engine replayed over the captured event trace — ESP-Bags, the
// vector-clock detector, or both fused into one shadow scan that asks
// both oracles every ordering query. With "both" the first query the
// oracles answer differently aborts the repair with exit code 5.
//
// -strategy picks how each race group is eliminated: "finish" inserts
// finish statements (the paper's repair), "isolated" (alias "iso")
// wraps commutative conflicting updates in isolated blocks where that
// eliminates the
// group's races (falling back to finish where it does not), and "auto"
// (default) probes both candidates per group against the captured trace
// and keeps the one with the shorter post-repair critical path. The
// -explain record documents every choice (candidate spans and why).
//
// -j N solves the independent per-NS-LCA finish-placement problems on a
// worker pool of N goroutines. It does not change detection: every
// detection round is one serial shadow scan, with any detector, and at
// every N the first round overlaps its analysis with the capture once
// the trace is long enough. The repaired program is byte-identical for
// any N.
//
// Robustness: -timeout bounds the wall-clock time of the whole pipeline
// and -max-dp-states bounds the dynamic-programming states explored by
// finish placement. A DP-state or deadline trip mid-placement degrades
// to the coarse sound placement (reported in the summary) rather than
// failing; exhausting a budget outright exits 4.
//
// Static analysis: -vet runs the static MHP/effect analyzer before the
// repair and reports on stderr every static race candidate the test
// input never exercised — the repair guarantee is test-driven, and
// these pairs are where other inputs could still race.
//
// Observability: -trace writes a Chrome trace_event JSON covering every
// pipeline phase (open it in chrome://tracing or ui.perfetto.dev),
// -jsonl writes the same spans plus the metrics registry as a JSONL
// event log, -metrics prints the metrics snapshot to stderr, and -v
// prints the span tree to stderr.
//
// Provenance: -explain out.json records WHY each finish landed where it
// did — per repair iteration, the NS-LCA groups with their static race
// classes (a race kind between a source and a sink statement, with its
// dynamic-race count and first locations) and DP placement decisions
// (candidates, chosen ranges, states explored), one entry per inserted
// scope naming the groups that chose it, and the critical-path length
// before/after — as a compact JSON document hjreport can render. With
// -v the same record is also summarized as human-readable "why this
// finish" text on stderr, one line per race class.
//
// Adversarial replay: -witness replays each static race (a race kind
// between a source and a sink statement) on the original program under
// deterministic race-directed schedules aimed at its first locations,
// then seeded random-priority schedules, until it observably diverges
// from the serial oracle, printing one witness per static race (its
// dynamic-race count, the schedule, expected vs actual output/state) on
// stderr and recording it in the -explain document; with -vet the
// coverage gaps are additionally driven by position-directed schedules
// and each gets a verdict (witnessed / unreachable / no-divergence).
// Each distinct schedule runs at most once per search. -adversary K
// re-executes the repaired program under K adversarial schedules
// (race-directed plus seeded random-priority; -witness alone implies
// K=16) and fails with exit 7 if any diverges from the serial oracle. -sched-seed makes the
// seeded schedules reproducible: same program, flags, and seed — same
// schedules, same witnesses, bit-identical output.
//
// Exit codes: 0 repaired (or already race-free), 1 error, 2 usage (no
// program, or a negative count, bound or timeout), 3 the iteration
// bound was exhausted with races remaining, 4 a resource budget (wall
// clock, ops, DP states) was exhausted or the run was canceled, 5 the ESP-Bags and vector-clock oracles disagreed on an
// ordering query (-detector both), 7 adversarial replay found a
// divergence that survives the repair: the verification diverged, or
// the iteration bound was exhausted with at least one witnessed race.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"finishrepair/internal/obs"
	"finishrepair/internal/repair"
	"finishrepair/tdr"
)

// exitMaxIterations is the distinct exit code for a repair that ran out
// of iterations before reaching race-freedom; exitBudgetExceeded for a
// run stopped by a resource budget or cancellation; exitDisagreement
// for the fused engine (-detector both) reporting an ordering query its
// two oracles answered differently.
// exitAdversary reports a divergence that survives the repair: either
// the post-repair adversarial verification diverged from the serial
// oracle, or the iteration bound was exhausted with at least one race
// replayed to a concrete witness (witnessed but unrepaired).
const (
	exitMaxIterations  = 3
	exitBudgetExceeded = 4
	exitDisagreement   = 5
	exitAdversary      = 7
)

func main() {
	detector := flag.String("detector", "mrw", "race detector: mrw|srw (ESP-Bags variant) or espbags|vc|both (trace-analysis engine)")
	strategy := flag.String("strategy", "auto", "repair strategy per race group: finish|isolated|auto; \"iso\" is accepted as an alias of isolated (auto picks the shorter post-repair critical path)")
	workers := flag.Int("j", 1, "per-NS-LCA DP workers; the first round overlaps by trace length at every -j (output is identical for any value)")
	out := flag.String("o", "", "write repaired program to this file (default stdout)")
	quiet := flag.Bool("quiet", false, "suppress the repair summary on stderr")
	maxIter := flag.Int("max-iter", 0, "bound on detect/repair rounds (0 = default 10)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole pipeline (0 = none)")
	maxDPStates := flag.Int64("max-dp-states", 0, "bound on DP states explored by finish placement (0 = unlimited)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON of the pipeline phases to this file")
	jsonlFile := flag.String("jsonl", "", "write a JSONL event log (spans + metrics) to this file")
	metrics := flag.Bool("metrics", false, "print the metrics snapshot to stderr")
	verbose := flag.Bool("v", false, "print the phase span tree to stderr")
	vet := flag.Bool("vet", false, "run the static analyzer and report race candidates the test input never exercised (coverage gaps) on stderr")
	explainFile := flag.String("explain", "", "write the repair-provenance record (NS-LCA groups with their static race classes, DP decisions, CPL before/after) as JSON to this file; with -v also summarize it on stderr")
	witness := flag.Bool("witness", false, "replay each static race (race kind, source and sink statement) under deterministic adversarial schedules to a concrete divergence witness; with -vet also drive the coverage gaps to a verdict")
	adversary := flag.Int("adversary", 0, "verify the repaired program under this many adversarial schedules, exit 7 on any divergence from the serial oracle (0 with -witness = 16)")
	schedSeed := flag.Int64("sched-seed", 0, "seed for the random-priority adversarial schedules; runs with the same program, flags, and seed are bit-identical")
	flag.Parse()
	if flag.NArg() != 1 {
		usage("")
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "j", "max-iter", "timeout", "max-dp-states", "adversary":
			if strings.HasPrefix(f.Value.String(), "-") {
				usage(fmt.Sprintf("-%s must not be negative", f.Name))
			}
		}
	})

	var tracer *obs.Tracer
	if *traceFile != "" || *jsonlFile != "" || *verbose {
		tracer = obs.New()
	}
	// Exporters run on every exit path so failed repairs stay auditable.
	// A failed export turns an otherwise-successful run into exit 1: the
	// caller asked for a trace it did not get.
	exportFailed := false
	exportObs := func() {
		if tracer.Enabled() {
			if err := obs.ExportFiles(tracer, *traceFile, *jsonlFile); err != nil {
				fmt.Fprintln(os.Stderr, "hjrepair:", err)
				exportFailed = true
			}
			if *verbose {
				obs.WriteSpansText(os.Stderr, tracer.Records())
			}
		}
		if *metrics {
			obs.WriteText(os.Stderr, obs.Default().Snapshot())
		}
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := tdr.LoadTraced(string(src), tracer)
	if err != nil {
		fatal(err)
	}

	d, eng, ok := tdr.ParseDetector(*detector)
	if !ok {
		fatal(fmt.Errorf("unknown detector %q", *detector))
	}
	strat, ok := tdr.ParseStrategy(*strategy)
	if !ok {
		fatal(fmt.Errorf("unknown strategy %q (have finish, isolated (alias iso), auto)", *strategy))
	}

	// Like exportObs, the explain record is written on every exit path
	// where a (possibly partial) report exists, so aborted repairs stay
	// explainable.
	writeExplain := func(rep *tdr.RepairReport) {
		if *explainFile == "" || rep == nil || rep.Explain == nil {
			return
		}
		rep.Explain.Program = flag.Arg(0)
		f, err := os.Create(*explainFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hjrepair:", err)
			exportFailed = true
			return
		}
		werr := rep.Explain.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "hjrepair:", werr)
			exportFailed = true
		}
		if *verbose {
			rep.Explain.WriteText(os.Stderr)
		}
	}

	rep, err := prog.Repair(tdr.RepairOptions{
		Detector:           d,
		Engine:             eng,
		Budget:             tdr.Budget{Timeout: *timeout, MaxDPStates: *maxDPStates, MaxIterations: *maxIter},
		Workers:            *workers,
		Vet:                *vet,
		Explain:            *explainFile != "",
		Witness:            *witness,
		AdversarySchedules: *adversary,
		SchedSeed:          *schedSeed,
		Strategy:           strat,
	})
	if err != nil {
		var de *tdr.DisagreementError
		if errors.As(err, &de) {
			exportObs()
			fmt.Fprintln(os.Stderr, "hjrepair:", err)
			os.Exit(exitDisagreement)
		}
		var mi *repair.MaxIterationsError
		if errors.As(err, &mi) {
			if !*quiet {
				summarize(rep, mi)
			}
			vetReport(rep)
			adversaryReport(rep)
			writeExplain(rep)
			exportObs()
			fmt.Fprintln(os.Stderr, "hjrepair:", err)
			// Witnessed but unrepaired: the unfixed races are proven
			// observable, which is worse than merely running out of rounds.
			if rep != nil && len(rep.Witnesses) > 0 {
				os.Exit(exitAdversary)
			}
			os.Exit(exitMaxIterations)
		}
		var ae *tdr.AdversaryError
		if errors.As(err, &ae) {
			if !*quiet {
				summarize(rep, nil)
			}
			vetReport(rep)
			adversaryReport(rep)
			writeExplain(rep)
			exportObs()
			fmt.Fprintln(os.Stderr, "hjrepair:", err)
			os.Exit(exitAdversary)
		}
		if tdr.IsBudgetOrCanceled(err) {
			if !*quiet {
				summarize(rep, nil)
			}
			writeExplain(rep)
			exportObs()
			fmt.Fprintln(os.Stderr, "hjrepair:", err)
			os.Exit(exitBudgetExceeded)
		}
		exportObs()
		fatal(err)
	}
	if !*quiet {
		summarize(rep, nil)
	}
	vetReport(rep)
	adversaryReport(rep)
	writeExplain(rep)
	exportObs()

	repaired := prog.Source()
	if *out == "" {
		fmt.Print(repaired)
	} else if err := os.WriteFile(*out, []byte(repaired), 0o644); err != nil {
		fatal(err)
	}
	if exportFailed {
		os.Exit(1)
	}
}

// summarize prints the one-line repair summary with the per-iteration
// race counts (e.g. "races/iter: 3,2,0"; the final 0 is the race-free
// confirmation round).
func summarize(rep *tdr.RepairReport, mi *repair.MaxIterationsError) {
	if rep == nil {
		return
	}
	perIter := make([]string, 0, len(rep.PerIteration))
	for _, n := range rep.RacesPerIteration() {
		perIter = append(perIter, fmt.Sprint(n))
	}
	status := ""
	if mi != nil {
		status = fmt.Sprintf(", %d race(s) UNRESOLVED", mi.RemainingRaces)
	}
	inserted := fmt.Sprintf("%d finish(es)", rep.FinishesInserted)
	if rep.IsolatedInserted > 0 {
		inserted = fmt.Sprintf("%d scope(s) (%d finish, %d isolated)",
			rep.FinishesInserted, rep.FinishesInserted-rep.IsolatedInserted, rep.IsolatedInserted)
	}
	fmt.Fprintf(os.Stderr, "hjrepair: %d race(s) found, %s inserted in %d iteration(s) (races/iter: %s)%s\n",
		rep.RacesFound, inserted, rep.Iterations, strings.Join(perIter, ","), status)
	if rep.Degraded {
		fmt.Fprintf(os.Stderr, "hjrepair: DEGRADED placement (still race-free, possibly over-synchronized): %s\n",
			rep.DegradedReason)
	}
}

// vetReport prints the -vet coverage-gap report: every static race
// candidate the dynamic detection rounds never exercised. An empty gap
// set means the test input drove every statically possible race.
func vetReport(rep *tdr.RepairReport) {
	if rep == nil || rep.StaticCandidates == 0 && len(rep.CoverageGaps) == 0 {
		return
	}
	exercised := rep.StaticCandidates - len(rep.CoverageGaps)
	fmt.Fprintf(os.Stderr, "hjrepair: vet: %d/%d static race candidate(s) exercised by this input\n",
		exercised, rep.StaticCandidates)
	for _, g := range rep.CoverageGaps {
		fmt.Fprintf(os.Stderr, "hjrepair: vet: unexercised: %s\n", g)
	}
}

// adversaryReport prints the -witness/-adversary results: each static
// race's replayed witness, the gap-search verdicts, and the verification
// tally.
func adversaryReport(rep *tdr.RepairReport) {
	if rep == nil {
		return
	}
	for _, w := range rep.Witnesses {
		fmt.Fprintf(os.Stderr, "hjrepair: witness: %s under %s: %s (expected %q got %q)\n",
			w.Subject(), w.Schedule, w.Reason, w.Expected, w.Actual)
	}
	for _, g := range rep.GapVerdicts {
		line := fmt.Sprintf("hjrepair: gap %s: %s", g.Status, g.Gap)
		if g.Schedule != "" {
			line += fmt.Sprintf(" (schedule %s)", g.Schedule)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if rep.Adversary != nil {
		fmt.Fprintf(os.Stderr, "hjrepair: adversary: %d/%d schedule(s) diverged from the serial oracle (seed %d)\n",
			rep.Adversary.Failures, rep.Adversary.Schedules, rep.Adversary.Seed)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hjrepair:", err)
	os.Exit(1)
}

// usage reports a misuse, if any, and the flags, and exits 2.
func usage(problem string) {
	if problem != "" {
		fmt.Fprintln(os.Stderr, "hjrepair:", problem)
	}
	fmt.Fprintln(os.Stderr, "usage: hjrepair [flags] program.hj")
	flag.PrintDefaults()
	os.Exit(2)
}
