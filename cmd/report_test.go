package cmd_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"finishrepair/internal/obs"
	"finishrepair/internal/obs/provenance"
)

// TestExplainProvenance runs hjrepair -explain end to end and checks
// the acceptance criterion: one provenance entry per placed finish,
// each naming groups that carry the race classes, the NS-LCA node and
// the DP states explored, and each carrying the CPL before/after.
func TestExplainProvenance(t *testing.T) {
	dir := t.TempDir()
	explain := filepath.Join(dir, "explain.json")
	_, stderr, code := runTool(t, "hjrepair", "-quiet", "-explain", explain,
		"-o", filepath.Join(dir, "fixed.hj"), "../examples/hj/counter.hj")
	if code != 0 {
		t.Fatalf("hjrepair -explain failed (%d): %s", code, stderr)
	}
	f, err := os.Open(explain)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ex, err := provenance.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Program != "../examples/hj/counter.hj" {
		t.Errorf("Program = %q", ex.Program)
	}
	if !ex.Converged {
		t.Error("repair did not converge")
	}
	if len(ex.Finishes) == 0 {
		t.Fatal("no finish entries in explain record")
	}
	for i, fe := range ex.Finishes {
		gs := ex.GroupsOf(fe)
		if len(gs) == 0 {
			t.Errorf("finish %d: names no group", i)
		}
		for _, g := range gs {
			if len(g.Classes) == 0 || g.Races() == 0 {
				t.Errorf("finish %d: no race classes", i)
			}
			if g.LCA.Kind == "" {
				t.Errorf("finish %d: no NS-LCA node", i)
			}
			if g.DPStates == 0 && !g.Fallback {
				t.Errorf("finish %d: no DP states and not a fallback", i)
			}
		}
		if fe.CPLBefore.Work == 0 || fe.CPLAfter.Work == 0 {
			t.Errorf("finish %d: missing CPL before/after: %+v", i, fe)
		}
		if fe.Finish.Pos == "" {
			t.Errorf("finish %d: no source position", i)
		}
	}
	if ex.CPLBefore.Span == 0 || ex.CPLAfter.Span == 0 {
		t.Errorf("run-level CPL missing: before %+v after %+v", ex.CPLBefore, ex.CPLAfter)
	}
}

// TestExplainVerboseText checks the -explain -v human-readable "why
// this finish" summary on stderr.
func TestExplainVerboseText(t *testing.T) {
	dir := t.TempDir()
	_, stderr, code := runTool(t, "hjrepair", "-quiet", "-v",
		"-explain", filepath.Join(dir, "explain.json"),
		"-o", filepath.Join(dir, "fixed.hj"), "../examples/hj/counter.hj")
	if code != 0 {
		t.Fatalf("hjrepair failed (%d): %s", code, stderr)
	}
	for _, want := range []string{"critical path:", "why:", "share NS-LCA", "how:", "wrap statements"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("explain text missing %q:\n%s", want, stderr)
		}
	}
}

// TestHjreportEndToEnd runs the full pipeline — hjrepair -explain
// -jsonl, then hjreport — and checks the HTML is self-contained: every
// report section present, zero external fetches.
func TestHjreportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	explain := filepath.Join(dir, "explain.json")
	jsonl := filepath.Join(dir, "run.jsonl")
	_, stderr, code := runTool(t, "hjrepair", "-quiet", "-vet",
		"-explain", explain, "-jsonl", jsonl,
		"-o", filepath.Join(dir, "fixed.hj"), "../examples/hj/counter.hj")
	if code != 0 {
		t.Fatalf("hjrepair failed (%d): %s", code, stderr)
	}

	html := filepath.Join(dir, "report.html")
	_, stderr, code = runTool(t, "hjreport", "-explain", explain, "-jsonl", jsonl, "-o", html)
	if code != 0 {
		t.Fatalf("hjreport failed (%d): %s", code, stderr)
	}
	raw, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)

	for _, want := range []string{
		"<!DOCTYPE html>",
		"Scope-placement timeline",
		"Races by NS-LCA group",
		"Pipeline flame chart",
		"Latency &amp; size distributions",
		"Counters &amp; gauges",
		"repair.stage_detect_ns", // a per-stage latency histogram card
		"p95",                    // quantiles on the cards
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// Self-contained: no external URLs, scripts, or stylesheet links.
	if m := regexp.MustCompile(`https?://[^"'\s<]+`).FindString(page); m != "" {
		t.Errorf("report references an external URL: %s", m)
	}
	for _, banned := range []string{"<script src", "<link rel=\"stylesheet\"", "@import", "url("} {
		if strings.Contains(page, banned) {
			t.Errorf("report not self-contained: found %q", banned)
		}
	}
}

// TestHjreportExplainOnly checks hjreport degrades gracefully with only
// the explain input: provenance sections render, span/metric ones are
// omitted rather than broken.
func TestHjreportExplainOnly(t *testing.T) {
	dir := t.TempDir()
	explain := filepath.Join(dir, "explain.json")
	if _, stderr, code := runTool(t, "hjrepair", "-quiet", "-explain", explain,
		"-o", filepath.Join(dir, "fixed.hj"), "../examples/hj/counter.hj"); code != 0 {
		t.Fatalf("hjrepair failed (%d): %s", code, stderr)
	}
	stdout, stderr, code := runTool(t, "hjreport", "-explain", explain)
	if code != 0 {
		t.Fatalf("hjreport failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stdout, "Scope-placement timeline") {
		t.Error("explain-only report missing the scope timeline")
	}
	if strings.Contains(stdout, "Pipeline flame chart") {
		t.Error("explain-only report claims a flame chart with no span input")
	}
}

// TestHjreportUsage checks the no-input usage error.
func TestHjreportUsage(t *testing.T) {
	_, _, code := runTool(t, "hjreport")
	if code != 2 {
		t.Errorf("hjreport with no inputs: exit %d, want 2", code)
	}
}

// repairBuggyFib runs hjrepair with extra flags on buggy_fib.hj, whose
// repair inserts 2 finishes for 465 races in 233 NS-LCA groups, 232 of
// which choose the same finish. It returns hjrepair's stderr and the
// explain record.
func repairBuggyFib(t *testing.T, explain string, flags ...string) (string, *provenance.Explain) {
	t.Helper()
	args := append(flags, "-explain", explain, "-o", filepath.Join(filepath.Dir(explain), "fixed.hj"), "../testdata/buggy_fib.hj")
	_, stderr, code := runTool(t, "hjrepair", args...)
	if code != 0 {
		t.Fatalf("hjrepair failed (%d): %s", code, stderr)
	}
	f, err := os.Open(explain)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ex, err := provenance.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return stderr, ex
}

// TestExplainOneRecordPerFact checks the explain record against the
// repair it explains: one finish entry per inserted scope, as many as
// the summary and the dp-place spans' placements count, and every race
// counted once, in one race class of its NS-LCA group, each class
// printed once by -v.
func TestExplainOneRecordPerFact(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "run.jsonl")
	stderr, ex := repairBuggyFib(t, filepath.Join(dir, "explain.json"), "-v", "-jsonl", jsonl)
	m := regexp.MustCompile(`hjrepair: (\d+) race\(s\) found, (\d+) finish\(es\) inserted`).FindStringSubmatch(stderr)
	if m == nil || m[1] != "465" || m[2] != "2" {
		t.Fatalf("summary %q, want 465 races and 2 finishes:\n%s", m, stderr)
	}
	if len(ex.Finishes) != 2 {
		t.Errorf("%d finish entries, want 2 (the inserted finishes)", len(ex.Finishes))
	}

	races, classes := 0, 0
	for _, it := range ex.Iterations {
		for gi, g := range it.Groups {
			races += g.Races()
			classes += len(g.Classes)
			seen := make(map[string]bool)
			for _, c := range g.Classes {
				key := fmt.Sprint(c.Kind, c.First.Pos, c.Second.Pos)
				if seen[key] {
					t.Errorf("round %d group %d: class %s recorded twice", it.N, gi, key)
				}
				seen[key] = true
			}
		}
	}
	if races != 465 {
		t.Errorf("groups hold %d races, want the summary's 465", races)
	}
	if n := strings.Count(stderr, " race(s) on "); n != classes {
		t.Errorf("-v text prints %d class lines, want %d (each class once)", n, classes)
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, _, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	var placed int64
	for _, r := range recs {
		for _, a := range r.Attrs {
			if r.Name == "dp-place" && a.Key == "placements" {
				placed += a.Int
			}
		}
	}
	if placed != int64(len(ex.Finishes)) {
		t.Errorf("dp-place spans commit %d placements, explain has %d entries", placed, len(ex.Finishes))
	}
}

// TestHjreportChipsMatchSummary checks hjreport's headline chips
// against hjrepair's summary: races found over every round, and one
// finish per inserted scope.
func TestHjreportChipsMatchSummary(t *testing.T) {
	dir := t.TempDir()
	explain := filepath.Join(dir, "explain.json")
	repairBuggyFib(t, explain, "-quiet")
	page, stderr, code := runTool(t, "hjreport", "-explain", explain)
	if code != 0 {
		t.Fatalf("hjreport failed (%d): %s", code, stderr)
	}
	for _, want := range []string{
		`<span class="v">465</span><span class="l">races found</span>`,
		`<span class="v">2</span><span class="l">finishes inserted</span>`,
		`+231 more group(s)`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestExplainOneRecordPerClass: the explain record, its -v text and
// hjreport's page hold one entry per race class of each NS-LCA group,
// not one per race, and the class counts add up to the races hjrepair
// reports. Finish-stripped SOR has 20,580 races in 3 classes, and
// Mergesort 277,680 races in 1,534 class records over 511 groups.
func TestExplainOneRecordPerClass(t *testing.T) {
	for _, c := range []struct {
		name                        string
		races, records              int
		maxJSON, maxText, maxReport int
	}{
		{"SOR", 20580, 3, 20 << 10, 10 << 10, 2 << 20},
		{"Mergesort", 277680, 1534, 2 << 20, 2 << 20, 2 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			explain := filepath.Join(dir, "explain.json")
			_, stderr, code := runTool(t, "hjrepair", "-v", "-explain", explain,
				"-o", filepath.Join(dir, "fixed.hj"), writeStripped(t, c.name))
			if code != 0 {
				t.Fatalf("hjrepair failed (%d): %s", code, stderr)
			}
			if want := fmt.Sprintf("hjrepair: %d race(s) found", c.races); !strings.Contains(stderr, want) {
				t.Errorf("summary lacks %q", want)
			}
			raw, err := os.ReadFile(explain)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := provenance.ReadJSON(strings.NewReader(string(raw)))
			if err != nil {
				t.Fatal(err)
			}
			races, records := 0, 0
			for _, it := range ex.Iterations {
				for _, g := range it.Groups {
					races += g.Races()
					records += len(g.Classes)
				}
			}
			if races != c.races || records != c.records {
				t.Errorf("record holds %d races in %d class records, want %d in %d", races, records, c.races, c.records)
			}
			if len(raw) > c.maxJSON || len(stderr) > c.maxText {
				t.Errorf("record is %d bytes and -v text %d, want at most %d and %d", len(raw), len(stderr), c.maxJSON, c.maxText)
			}
			page := filepath.Join(dir, "report.html")
			if _, stderr, code := runTool(t, "hjreport", "-explain", explain, "-o", page); code != 0 {
				t.Fatalf("hjreport failed (%d): %s", code, stderr)
			}
			fi, err := os.Stat(page)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() > int64(c.maxReport) {
				t.Errorf("report page is %d bytes, want at most %d", fi.Size(), c.maxReport)
			}
		})
	}
}
