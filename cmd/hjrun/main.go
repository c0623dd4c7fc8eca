// Command hjrun executes an HJ-lite program.
//
// Usage:
//
//	hjrun [-mode seq|par|detect|coverage|stress|dot] [-workers N]
//	      [-detector mrw|srw|espbags|vc|both]
//	      [-adversary K] [-sched-seed N]
//	      [-trace out.json] [-jsonl out.jsonl] [-metrics] [-v] program.hj
//
// Modes:
//
//	seq      serial elision (async/finish ignored) — the reference
//	par      parallel execution on the taskpar work-stealing runtime
//	detect   canonical depth-first execution with race detection
//	coverage test-adequacy analysis: which asyncs/statements the
//	         input actually exercises
//	stress   adversarial schedule stress: re-execute under K
//	         deterministic schedules (race-directed on every global plus
//	         seeded random-priority; -adversary K, -sched-seed N) and
//	         compare each against the serial oracle — exit 7 with a
//	         replayable witness on any divergence
//	dot      S-DPST with race edges in Graphviz format (paper Fig. 9)
//
// For -mode detect, -detector picks the detector: "mrw" (default) and
// "srw" select the ESP-Bags variant; "espbags", "vc", and "both" select
// the engine that analyzes the captured event trace — ESP-Bags, the
// vector-clock detector, or both fused into one shadow scan that asks
// both oracles every ordering query. With "both" the first query the
// oracles answer differently exits with code 5.
//
// Observability: -trace writes a Chrome trace_event JSON of the phases
// (parse, sem-check, and the run/detect phase), -jsonl a JSONL event
// log, -metrics the metrics snapshot (including taskpar/sched task and
// steal counters for -mode par) to stderr, and -v the span tree.
//
// -timeout bounds the wall clock of the whole run; exhausting it (or
// any other resource budget) exits 4. A missing program or a negative
// -workers, -adversary or -timeout exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"finishrepair/internal/obs"
	"finishrepair/tdr"
)

// exitBudgetExceeded is the distinct exit code for a run stopped by a
// resource budget (wall clock, ops) or cancellation; exitDisagreement
// for the fused engine (-detector both) reporting an ordering query its
// two oracles answered differently; exitAdversary for a -mode stress
// run whose program diverged from the serial oracle under some
// schedule.
const (
	exitBudgetExceeded = 4
	exitDisagreement   = 5
	exitAdversary      = 7
)

func main() {
	mode := flag.String("mode", "par", "execution mode: seq, par, detect, coverage, stress, or dot")
	workers := flag.Int("workers", 0, "pool workers for -mode par (0 = GOMAXPROCS)")
	detector := flag.String("detector", "mrw", "race detector for -mode detect: mrw|srw (ESP-Bags variant) or espbags|vc|both (trace-analysis engine)")
	adversary := flag.Int("adversary", 0, "schedules for -mode stress (0 = 16)")
	schedSeed := flag.Int64("sched-seed", 0, "seed for -mode stress's random-priority schedules; runs are deterministic per seed")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON of the phases to this file")
	jsonlFile := flag.String("jsonl", "", "write a JSONL event log (spans + metrics) to this file")
	metrics := flag.Bool("metrics", false, "print the metrics snapshot to stderr")
	verbose := flag.Bool("v", false, "print the phase span tree to stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		usage("")
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers", "adversary", "timeout":
			if strings.HasPrefix(f.Value.String(), "-") {
				usage(fmt.Sprintf("-%s must not be negative", f.Name))
			}
		}
	})

	var tracer *obs.Tracer
	if *traceFile != "" || *jsonlFile != "" || *verbose {
		tracer = obs.New()
	}
	// A failed export turns an otherwise-successful run into exit 1: the
	// caller asked for a trace it did not get.
	exportFailed := false
	exportObs := func() {
		if tracer.Enabled() {
			if err := obs.ExportFiles(tracer, *traceFile, *jsonlFile); err != nil {
				fmt.Fprintln(os.Stderr, "hjrun:", err)
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

	exit := func(code int) {
		exportObs()
		os.Exit(code)
	}

	budget := tdr.Budget{Timeout: *timeout}
	ctx := context.Background()
	fail := func(err error) {
		exportObs()
		fmt.Fprintln(os.Stderr, "hjrun:", err)
		if tdr.IsBudgetOrCanceled(err) {
			os.Exit(exitBudgetExceeded)
		}
		os.Exit(1)
	}

	switch *mode {
	case "seq":
		out, err := prog.RunSequentialCtx(ctx, budget)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	case "par":
		out, err := prog.RunParallelCtx(ctx, *workers, budget)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	case "dot":
		dot, err := prog.SDPSTDotCtx(ctx, budget)
		if err != nil {
			fail(err)
		}
		fmt.Print(dot)
	case "coverage":
		cov, err := prog.CoverageCtx(ctx, budget)
		if err != nil {
			fail(err)
		}
		fmt.Println(cov)
		if !cov.Adequate() {
			fmt.Fprintln(os.Stderr, "hjrun: WARNING: some async statements never executed; this input cannot drive their repair")
			exit(1)
		}
	case "stress":
		rep, err := prog.Stress(ctx, tdr.StressOptions{
			Schedules: *adversary,
			Seed:      *schedSeed,
			Budget:    budget,
		})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "hjrun: stress: %d/%d schedule(s) diverged from the serial oracle (seed %d)\n",
			rep.Failures, rep.Schedules, *schedSeed)
		for i, d := range rep.Diverged {
			if i >= 20 {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(rep.Diverged)-20)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		if rep.First != nil {
			fmt.Fprintf(os.Stderr, "hjrun: witness: replay with schedule %s: expected %q got %q\n",
				rep.First.Schedule, rep.First.Expected, rep.First.Actual)
			if rep.First.ExpectedState != rep.First.ActualState {
				fmt.Fprintf(os.Stderr, "hjrun: witness: final state expected %q got %q\n",
					rep.First.ExpectedState, rep.First.ActualState)
			}
		}
		if rep.Failures > 0 {
			exit(exitAdversary)
		}
	case "detect":
		d, eng, ok := tdr.ParseDetector(*detector)
		if !ok {
			fatal(fmt.Errorf("unknown detector %q", *detector))
		}
		rep, err := prog.DetectEngineCtx(ctx, d, eng, budget)
		if err != nil {
			var de *tdr.DisagreementError
			if errors.As(err, &de) {
				exportObs()
				fmt.Fprintln(os.Stderr, "hjrun:", err)
				os.Exit(exitDisagreement)
			}
			fail(err)
		}
		fmt.Print(rep.Output)
		fmt.Fprintf(os.Stderr, "hjrun: %d race(s), %d S-DPST nodes\n", len(rep.Races), rep.SDPSTNodes)
		for i, r := range rep.Races {
			if i >= 20 {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(rep.Races)-20)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s: step %d (%s) -> step %d (%s)\n",
				r.Kind, r.SrcStep, r.SrcPos, r.DstStep, r.DstPos)
		}
		if len(rep.Races) > 0 {
			exit(1)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	exportObs()
	if exportFailed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hjrun:", err)
	os.Exit(1)
}

// usage reports a misuse, if any, and the flags, and exits 2.
func usage(problem string) {
	if problem != "" {
		fmt.Fprintln(os.Stderr, "hjrun:", problem)
	}
	fmt.Fprintln(os.Stderr, "usage: hjrun [flags] program.hj")
	flag.PrintDefaults()
	os.Exit(2)
}
