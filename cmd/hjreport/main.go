// Command hjreport renders the observability artifacts of one hjrepair
// run into a single self-contained HTML report: the repair-provenance
// record (hjrepair -explain), the span/metric event log (hjrepair
// -jsonl), or both.
//
// Usage:
//
//	hjreport [-explain explain.json] [-jsonl run.jsonl]
//	         [-title s] [-o report.html]
//
// At least one of -explain and -jsonl is required; sections whose input
// is missing are omitted. The report shows the pipeline span flame
// chart, per-stage latency distributions with p50/p95/p99, the race
// table grouped by NS-LCA (one row per static race class, with its race
// count and first locations), the finish-placement timeline with the
// critical-path (CPL) delta of every inserted finish, and the -vet
// coverage gaps. The HTML embeds all styling and data inline and
// performs zero network fetches, so it can be archived as a CI artifact
// or mailed around as one file.
//
// A typical pipeline:
//
//	hjrepair -explain ex.json -jsonl run.jsonl -o fixed.hj prog.hj
//	hjreport -explain ex.json -jsonl run.jsonl -o report.html
package main

import (
	"flag"
	"fmt"
	"os"

	"finishrepair/internal/obs"
	"finishrepair/internal/obs/provenance"
)

func main() {
	explainFile := flag.String("explain", "", "repair-provenance JSON written by hjrepair -explain")
	jsonlFile := flag.String("jsonl", "", "span/metric JSONL event log written by hjrepair -jsonl")
	title := flag.String("title", "", "report title (default: the explained program, or \"finishrepair report\")")
	out := flag.String("o", "", "write the HTML report to this file (default stdout)")
	flag.Parse()
	if flag.NArg() != 0 || (*explainFile == "" && *jsonlFile == "") {
		fmt.Fprintln(os.Stderr, "usage: hjreport [-explain explain.json] [-jsonl run.jsonl] [-title s] [-o report.html]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var ex *provenance.Explain
	if *explainFile != "" {
		f, err := os.Open(*explainFile)
		if err != nil {
			fatal(err)
		}
		ex, err = provenance.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *explainFile, err))
		}
	}

	var recs []obs.SpanRecord
	var samples []obs.Sample
	if *jsonlFile != "" {
		f, err := os.Open(*jsonlFile)
		if err != nil {
			fatal(err)
		}
		recs, samples, err = obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *jsonlFile, err))
		}
	}

	t := *title
	if t == "" {
		t = "finishrepair report"
		if ex != nil && ex.Program != "" {
			t = "finishrepair report: " + ex.Program
		}
	}
	data := buildReport(t, ex, recs, samples)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := render(w, data); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hjreport:", err)
	os.Exit(1)
}
