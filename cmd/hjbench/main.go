// Command hjbench regenerates the evaluation of the paper (§7): the
// benchmark roster (Table 1), repair-time breakdown (Table 2), SRW/MRW
// comparison (Table 3), race counts (Table 4), the performance figure
// (Figure 16), and the student-homework study (§7.4).
//
// Usage:
//
//	hjbench -table 1|2|3|4 [-json]
//	hjbench -fig 16 [-runs N] [-scale PCT]
//	hjbench -fig 4
//	hjbench -homework
//	hjbench -all [-runs N] [-scale PCT]
//
// Observability: -trace FILE writes a Chrome trace_event JSON of every
// harness phase (per-benchmark repair iterations with detect / dp-place
// / rewrite breakdowns), -metrics prints the metrics registry to stderr
// after the run, and -debug-addr HOST:PORT serves expvar
// (/debug/vars), a metrics text endpoint (/debug/metrics), Prometheus
// exposition (/debug/prom), and net/http/pprof (/debug/pprof/) for
// live inspection while long benchmark runs execute; the server drains
// in-flight scrapes gracefully on exit. -sample FILE appends a
// metrics-registry snapshot to FILE as one JSONL line every
// -sample-interval, giving a coarse time series over a long run.
//
// A negative -j, -runs or -timeout exits 2, as does a run that selects
// nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"finishrepair/internal/bench"
	"finishrepair/internal/homework"
	"finishrepair/internal/obs"
	"finishrepair/internal/repair"
	"finishrepair/tdr"
)

func main() {
	table := flag.Int("table", 0, "print table 1, 2, 3, or 4")
	fig := flag.Int("fig", 0, "print figure 4 (placement example) or 16 (performance)")
	hw := flag.Bool("homework", false, "run the student-homework study (§7.4)")
	ablation := flag.Bool("ablation", false, "run the S-DPST collapse ablation")
	all := flag.Bool("all", false, "run everything")
	runs := flag.Int("runs", 5, "repetitions per data point for figure 16 (paper: 30)")
	scale := flag.Int("scale", 100, "percentage of the performance input size for figure 16")
	jsonOut := flag.Bool("json", false, "emit table 2 as JSON with stage-level breakdowns")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON of the harness phases to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per benchmark repair (0 = none)")
	workers := flag.Int("j", 1, "per-NS-LCA DP workers; the first round overlaps by trace length at every -j (harness repairs; results are identical for any value)")
	metrics := flag.Bool("metrics", false, "print the metrics snapshot to stderr after the run")
	debugAddr := flag.String("debug-addr", "", "serve expvar + pprof + Prometheus debug endpoints on this address (e.g. localhost:6060)")
	sampleFile := flag.String("sample", "", "append periodic metrics-registry snapshots to this JSONL file")
	sampleEvery := flag.Duration("sample-interval", time.Second, "interval between -sample snapshots")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "j", "runs", "timeout":
			if strings.HasPrefix(f.Value.String(), "-") {
				fmt.Fprintf(os.Stderr, "hjbench: -%s must not be negative\n", f.Name)
				flag.PrintDefaults()
				os.Exit(2)
			}
		}
	})

	if *debugAddr != "" {
		addr, srv, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hjbench: debug server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hjbench: debug endpoints at http://%s/debug/{vars,metrics,prom,pprof}\n", addr)
		// Drain in-flight scrapes before the process exits; a hung
		// client only delays us by the shutdown timeout.
		defer func() {
			if err := obs.ShutdownDebug(srv, 2*time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "hjbench: debug shutdown: %v\n", err)
			}
		}()
	}
	if *sampleFile != "" {
		f, err := os.Create(*sampleFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hjbench: %v\n", err)
			os.Exit(1)
		}
		s := obs.StartSampler(f, *sampleEvery, nil)
		defer func() {
			if err := s.Stop(); err == nil {
				err = f.Close()
				if err != nil {
					fmt.Fprintf(os.Stderr, "hjbench: sample: %v\n", err)
				}
			} else {
				f.Close()
				fmt.Fprintf(os.Stderr, "hjbench: sample: %v\n", err)
			}
		}()
	}
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.New()
		bench.SetTracer(tracer)
	}
	if *timeout > 0 {
		bench.SetBudget(tdr.Budget{Timeout: *timeout})
	}
	if *workers > 1 {
		bench.SetWorkers(*workers)
	}

	w := os.Stdout
	any := false
	run := func(name string, f func() error) {
		any = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "hjbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}

	if *all || *table == 1 {
		run("table 1", func() error { bench.PrintTable1(w); return nil })
	}
	if *all || *table == 2 {
		if *jsonOut {
			run("table 2", func() error { return bench.Table2JSON(w) })
		} else {
			run("table 2", func() error { return bench.PrintTable2(w) })
		}
	}
	if *all || *table == 3 {
		run("table 3", func() error { return bench.PrintTable3(w) })
	}
	if *all || *table == 4 {
		run("table 4", func() error { return bench.PrintTable4(w) })
	}
	if *all || *fig == 4 {
		run("figure 4", func() error { return printFig4(w) })
	}
	if *all || *fig == 16 {
		run("figure 16", func() error { return bench.PrintFig16(w, *runs, *scale) })
	}
	if *all || *hw {
		run("homework", func() error { return printHomework(w) })
	}
	if *all || *ablation {
		run("ablation", func() error { return bench.PrintAblation(w) })
	}
	if !any {
		flag.PrintDefaults()
		os.Exit(2)
	}

	if tracer.Enabled() {
		if err := obs.ExportFiles(tracer, *traceFile, ""); err != nil {
			fmt.Fprintf(os.Stderr, "hjbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *metrics {
		obs.WriteText(os.Stderr, obs.Default().Snapshot())
	}
}

// printFig4 reproduces the finish-placement example of paper Figures 3/4
// and reports the placement Algorithm 1 finds.
func printFig4(w *os.File) error {
	prob := &repair.Problem{
		N:     6,
		T:     []int64{500, 10, 10, 400, 600, 500},
		Async: []bool{true, true, true, true, true, true},
		Edges: [][2]int{{1, 3}, {0, 5}, {3, 5}},
	}
	fmt.Fprintln(w, "Figure 3/4: asyncs A-F with times 500,10,10,400,600,500; deps B->D, A->F, D->F")
	names := "ABCDEF"
	rows := []struct {
		desc string
		fs   []repair.FinishBlock
	}{
		{"( A ) ( B ) C ( D ) E F", []repair.FinishBlock{{S: 0, E: 0}, {S: 1, E: 1}, {S: 3, E: 3}}},
		{"( A B ) C ( D ) E F", []repair.FinishBlock{{S: 0, E: 1}, {S: 3, E: 3}}},
		{"( A B C ) ( D ) E F", []repair.FinishBlock{{S: 0, E: 2}, {S: 3, E: 3}}},
		{"( A ( B ) C D E ) F", []repair.FinishBlock{{S: 0, E: 4}, {S: 1, E: 1}}},
	}
	for _, r := range rows {
		c, err := repair.Evaluate(prob, r.fs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-28s CPL = %d\n", r.desc, c)
	}
	sol, err := repair.Solve(prob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Algorithm 1 optimum: CPL = %d (%d DP states), finish set:", sol.Cost, sol.States)
	for _, f := range sol.Finishes {
		fmt.Fprintf(w, " (%c..%c)", names[f.S], names[f.E])
	}
	fmt.Fprintln(w)
	return nil
}

func printHomework(w *os.File) error {
	sr, err := homework.RunStudy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Student homework study (§7.4): %d submissions\n", len(sr.Results))
	fmt.Fprintf(w, "  with data races:    %2d (paper: 5)\n", sr.Racy)
	fmt.Fprintf(w, "  over-synchronized:  %2d (paper: 29)\n", sr.OverSync)
	fmt.Fprintf(w, "  matching the tool:  %2d (paper: 25)\n", sr.Matching)
	fmt.Fprintf(w, "  tool repair critical path: %d work units\n", sr.ToolSpan)
	byStrategy := map[string][]int{}
	for _, gr := range sr.Results {
		byStrategy[gr.Submission.Strategy.Name] = append(byStrategy[gr.Submission.Strategy.Name], gr.Submission.ID)
	}
	for _, st := range homework.Strategies {
		ids := byStrategy[st.Name]
		if len(ids) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-18s x%-2d  %s\n", st.Name, len(ids), st.Desc)
	}
	return nil
}
