// Package cmd_test builds the command-line tools once and exercises them
// end to end on the testdata programs.
package cmd_test

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"finishrepair/internal/bench"
	"finishrepair/internal/obs"
	"finishrepair/tdr"
)

var bins = map[string]string{}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "finishrepair-cli")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	for _, tool := range []string{"hjrepair", "hjrun", "hjbench", "hjvet", "hjreport"} {
		bin := filepath.Join(dir, tool)
		out, err := exec.Command("go", "build", "-o", bin, "./"+tool).CombinedOutput()
		if err != nil {
			panic(tool + ": " + string(out))
		}
		bins[tool] = bin
	}
	os.Exit(m.Run())
}

func runTool(t *testing.T, tool string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bins[tool], args...)
	var ob, eb strings.Builder
	cmd.Stdout, cmd.Stderr = &ob, &eb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return ob.String(), eb.String(), code
}

func TestHjrunDetectFindsRaces(t *testing.T) {
	_, stderr, code := runTool(t, "hjrun", "-mode", "detect", "../testdata/buggy_fib.hj")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (races found); stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "race(s)") {
		t.Errorf("stderr missing race report: %s", stderr)
	}
}

func TestHjrepairThenRun(t *testing.T) {
	dir := t.TempDir()
	fixed := filepath.Join(dir, "fixed.hj")
	_, stderr, code := runTool(t, "hjrepair", "-o", fixed, "../testdata/buggy_fib.hj")
	if code != 0 {
		t.Fatalf("hjrepair failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stderr, "finish(es) inserted") {
		t.Errorf("missing summary: %s", stderr)
	}
	if !strings.Contains(stderr, "races/iter:") {
		t.Errorf("summary missing per-iteration race counts: %s", stderr)
	}

	// The repaired program is race-free and runs in parallel.
	_, stderr, code = runTool(t, "hjrun", "-mode", "detect", fixed)
	if code != 0 {
		t.Fatalf("repaired program still racy: %s", stderr)
	}
	stdout, _, code := runTool(t, "hjrun", "-mode", "par", fixed)
	if code != 0 || stdout != "144\n" {
		t.Fatalf("parallel run: code %d output %q, want 144", code, stdout)
	}
	stdout, _, _ = runTool(t, "hjrun", "-mode", "seq", fixed)
	if stdout != "144\n" {
		t.Fatalf("sequential run output %q, want 144", stdout)
	}
}

func TestHjrunCoverage(t *testing.T) {
	stdout, _, code := runTool(t, "hjrun", "-mode", "coverage", "../testdata/quicksort.hj")
	if code != 0 {
		t.Fatalf("coverage exit %d", code)
	}
	if !strings.Contains(stdout, "asyncs 2/2") {
		t.Errorf("coverage output %q missing async coverage", stdout)
	}
}

func TestHjrunExpertQuicksortIsRaceFree(t *testing.T) {
	stdout, stderr, code := runTool(t, "hjrun", "-mode", "detect", "../testdata/quicksort.hj")
	if code != 0 {
		t.Fatalf("expert quicksort reported races: %s", stderr)
	}
	if stdout != "1\n" {
		t.Errorf("output %q, want sorted (1)", stdout)
	}
}

func TestHjbenchFig4(t *testing.T) {
	stdout, stderr, code := runTool(t, "hjbench", "-fig", "4")
	if code != 0 {
		t.Fatalf("hjbench -fig 4: %s", stderr)
	}
	for _, want := range []string{"CPL = 1510", "CPL = 1500", "CPL = 1110", "CPL = 1100", "(A..D) (B..B)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("fig 4 output missing %q:\n%s", want, stdout)
		}
	}
}

func TestHjrepairTraceExport(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.json")
	jsonlFile := filepath.Join(dir, "t.jsonl")
	_, stderr, code := runTool(t, "hjrepair", "-quiet",
		"-trace", traceFile, "-jsonl", jsonlFile, "-metrics", "../testdata/buggy_fib.hj")
	if code != 0 {
		t.Fatalf("hjrepair failed (%d): %s", code, stderr)
	}

	// The Chrome trace covers every pipeline phase of paper Fig. 6.
	tf, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	recs, err := obs.ReadChromeTrace(tf)
	if err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	have := map[string]bool{}
	for _, r := range recs {
		have[r.Name] = true
	}
	for _, phase := range []string{"parse", "sem-check", "repair", "iteration", "detect", "group-nslca", "dp-place", "rewrite", "verify"} {
		if !have[phase] {
			t.Errorf("chrome trace missing phase %q (got %v)", phase, have)
		}
	}

	// The JSONL log re-parses, nests well-formedly, and carries metrics.
	jf, err := os.Open(jsonlFile)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	spans, samples, err := obs.ReadJSONL(jf)
	if err != nil {
		t.Fatalf("invalid jsonl: %v", err)
	}
	if err := obs.ValidateNesting(spans); err != nil {
		t.Errorf("jsonl spans malformed: %v", err)
	}
	foundDP := false
	for _, s := range samples {
		if s.Name == "repair.dp_states" && s.Value > 0 {
			foundDP = true
		}
	}
	if !foundDP {
		t.Errorf("jsonl metrics missing repair.dp_states > 0: %v", samples)
	}

	// -metrics dumps the registry to stderr.
	if !strings.Contains(stderr, "race.detect_runs") {
		t.Errorf("-metrics output missing detector counters: %s", stderr)
	}
}

func TestHjrepairMaxIterationsExitCode(t *testing.T) {
	// buggy_fib needs two repair rounds; a bound of one exhausts.
	_, stderr, code := runTool(t, "hjrepair", "-max-iter", "1", "../testdata/buggy_fib.hj")
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (max iterations exhausted); stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "UNRESOLVED") || !strings.Contains(stderr, "races/iter:") {
		t.Errorf("exhaustion summary incomplete: %s", stderr)
	}
}

func TestHjrunTraceExport(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "run.json")
	_, stderr, code := runTool(t, "hjrun", "-mode", "par", "-trace", traceFile, "-metrics", "../testdata/quicksort.hj")
	if code != 0 {
		t.Fatalf("hjrun failed (%d): %s", code, stderr)
	}
	tf, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	recs, err := obs.ReadChromeTrace(tf)
	if err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	have := map[string]bool{}
	for _, r := range recs {
		have[r.Name] = true
	}
	for _, phase := range []string{"parse", "sem-check", "parallel-run"} {
		if !have[phase] {
			t.Errorf("trace missing phase %q", phase)
		}
	}
	// The parallel run drove the task runtime; its counters surface.
	if !strings.Contains(stderr, "taskpar.asyncs") {
		t.Errorf("-metrics missing taskpar counters: %s", stderr)
	}
}

func TestHjbenchDebugAddrRejectsBadAddress(t *testing.T) {
	_, stderr, code := runTool(t, "hjbench", "-fig", "4", "-debug-addr", "256.0.0.1:bogus")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "debug server") {
		t.Errorf("stderr missing debug server diagnosis: %s", stderr)
	}
}

func TestHjrepairBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.hj")
	if err := os.WriteFile(bad, []byte("func main() { undefined(); }"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runTool(t, "hjrepair", bad)
	if code == 0 {
		t.Fatal("hjrepair accepted an invalid program")
	}
	if !strings.Contains(stderr, "undefined") {
		t.Errorf("stderr %q missing diagnosis", stderr)
	}
}

// writeProg drops an HJ-lite source into a temp dir and returns its path.
func writeProg(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliLongRacy = `
var g = 0;

func main() {
    async {
        for (var i = 0; i < 1000000000; i = i + 1) {
            g = g + 1;
        }
    }
    g = 1;
}
`

const cliShortRacy = `
var g = 0;

func main() {
    async { g = 1; }
    async { g = 2; }
    g = 3;
    println(g);
}
`

// TestHjrepairTimeoutExitsBudgetCode: a wall-clock budget too small for
// the detection run must stop the pipeline with the distinct budget
// exit code (4), not the iteration-bound code (3) or a generic 1.
func TestHjrepairTimeoutExitsBudgetCode(t *testing.T) {
	prog := writeProg(t, "long.hj", cliLongRacy)
	_, stderr, code := runTool(t, "hjrepair", "-timeout", "50ms", prog)
	if code != 4 {
		t.Fatalf("exit = %d, want 4 (budget exceeded); stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "deadline exceeded") {
		t.Errorf("stderr should name the tripped deadline: %s", stderr)
	}
}

// TestHjrepairDPStateBudgetDegrades: a DP-state budget of 1 trips the
// optimal placement immediately; the tool must still succeed (exit 0)
// with the coarse sound placement and report the degradation.
func TestHjrepairDPStateBudgetDegrades(t *testing.T) {
	prog := writeProg(t, "short.hj", cliShortRacy)
	dir := t.TempDir()
	fixed := filepath.Join(dir, "fixed.hj")
	_, stderr, code := runTool(t, "hjrepair", "-max-dp-states", "1", "-o", fixed, prog)
	if code != 0 {
		t.Fatalf("degraded repair should exit 0, got %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "DEGRADED") {
		t.Errorf("summary should flag the degraded placement: %s", stderr)
	}
	// The degraded output must still be race-free.
	_, stderr, code = runTool(t, "hjrun", "-mode", "detect", fixed)
	if code != 0 {
		t.Fatalf("degraded repair left races: %s", stderr)
	}
}

// TestHjrunTimeoutExitsBudgetCode: hjrun's -timeout bounds a runaway
// sequential execution and exits 4.
func TestHjrunTimeoutExitsBudgetCode(t *testing.T) {
	prog := writeProg(t, "long.hj", cliLongRacy)
	_, stderr, code := runTool(t, "hjrun", "-mode", "seq", "-timeout", "50ms", prog)
	if code != 4 {
		t.Fatalf("exit = %d, want 4 (budget exceeded); stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "deadline exceeded") {
		t.Errorf("stderr should name the tripped deadline: %s", stderr)
	}
}

// TestHjrunDotCoverageTimeoutExitsBudgetCode: -timeout also bounds
// -mode dot and -mode coverage, so a program that never ends exits 4
// instead of recording trace events until memory runs out. The run is
// killed after 10 s, so a regression fails rather than hangs.
func TestHjrunDotCoverageTimeoutExitsBudgetCode(t *testing.T) {
	prog := writeProg(t, "loop.hj", "func main() { while (true) { } }")
	for _, mode := range []string{"dot", "coverage"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bins["hjrun"], "-mode", mode, "-timeout", "200ms", prog)
		var eb strings.Builder
		cmd.Stderr = &eb
		err := cmd.Run()
		killed := ctx.Err() != nil
		cancel()
		if killed {
			t.Fatalf("-mode %s: still running after 10 s", mode)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 4 {
			t.Fatalf("-mode %s: %v, want exit 4 (budget exceeded); stderr: %s", mode, err, eb.String())
		}
		if !strings.Contains(eb.String(), "deadline exceeded") {
			t.Errorf("-mode %s: stderr should name the tripped deadline: %s", mode, eb.String())
		}
	}
}

// TestHjrunHelpListsEveryMode: the -mode help in `hjrun -h` names every
// mode hjrun's mode switch accepts, read from the switch itself.
func TestHjrunHelpListsEveryMode(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("hjrun", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var modes []string
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		tag, ok := sw.Tag.(*ast.StarExpr)
		if !ok {
			return true
		}
		if id, ok := tag.X.(*ast.Ident); !ok || id.Name != "mode" {
			return true
		}
		for _, c := range sw.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				if lit, ok := e.(*ast.BasicLit); ok {
					s, _ := strconv.Unquote(lit.Value)
					modes = append(modes, s)
				}
			}
		}
		return false
	})
	if len(modes) == 0 {
		t.Fatal("no case of the mode switch found in hjrun/main.go")
	}
	_, stderr, code := runTool(t, "hjrun", "-h")
	if code != 0 {
		t.Fatalf("hjrun -h: exit = %d, want 0; stderr: %s", code, stderr)
	}
	_, help, ok := strings.Cut(stderr, "-mode string")
	if !ok {
		t.Fatalf("hjrun -h lists no -mode flag:\n%s", stderr)
	}
	help, _, _ = strings.Cut(help, "(default")
	for _, m := range modes {
		if !regexp.MustCompile(`\b` + m + `\b`).MatchString(help) {
			t.Errorf("-mode help %q does not name mode %q", strings.TrimSpace(help), m)
		}
	}
}

// TestHjrunDetectorEngines: every -detector value must report the same
// races on the buggy fixture, and "both" must agree (no exit 5).
func TestHjrunDetectorEngines(t *testing.T) {
	var reports []string
	for _, d := range []string{"mrw", "espbags", "vc", "both"} {
		_, stderr, code := runTool(t, "hjrun", "-mode", "detect", "-detector", d, "../testdata/buggy_fib.hj")
		if code != 1 {
			t.Fatalf("-detector %s: exit = %d, want 1 (races found); stderr: %s", d, code, stderr)
		}
		if !strings.Contains(stderr, "race(s)") {
			t.Errorf("-detector %s: stderr missing race report: %s", d, stderr)
		}
		reports = append(reports, stderr)
	}
	for i, r := range reports[1:] {
		if r != reports[0] {
			t.Errorf("-detector %s race report differs from mrw:\n%s\nvs\n%s",
				[]string{"espbags", "vc", "both"}[i], r, reports[0])
		}
	}
	_, stderr, code := runTool(t, "hjrun", "-mode", "detect", "-detector", "nope", "../testdata/buggy_fib.hj")
	if code != 1 || !strings.Contains(stderr, "unknown detector") {
		t.Errorf("bad -detector: exit = %d, stderr: %s", code, stderr)
	}
}

// TestHjrepairDetectorBoth repairs under the differential engine: the
// engines must agree on every round (exit 0) and the repaired source
// must match the default engine's result byte for byte, at -j 1, 2 and
// 4. testdata/buggy_fib.hj's capture is analyzed after it ends;
// testdata/quicksort.hj's (about 100,000 events) is long enough that
// the first round's analysis overlaps it at every -j, which -v shows as
// streamed=1.
func TestHjrepairDetectorBoth(t *testing.T) {
	runs := []struct {
		name string
		args []string
	}{
		{"mrw", []string{"-detector", "mrw"}},
		{"vc", []string{"-detector", "vc"}},
		{"both", []string{"-detector", "both"}},
		{"both -j 2", []string{"-detector", "both", "-j", "2"}},
		{"both -j 4", []string{"-detector", "both", "-j", "4"}},
	}
	for _, prog := range []string{"buggy_fib.hj", "quicksort.hj"} {
		var outs []string
		for _, r := range runs {
			args := append([]string{"-quiet", "-v"}, r.args...)
			stdout, stderr, code := runTool(t, "hjrepair", append(args, "../testdata/"+prog)...)
			if code != 0 {
				t.Fatalf("%s -detector %s: exit = %d; stderr: %s", prog, r.name, code, stderr)
			}
			if !strings.Contains(stdout, "finish") {
				t.Errorf("%s -detector %s: no finish in repaired source", prog, r.name)
			}
			if want := prog == "quicksort.hj"; strings.Contains(stderr, "streamed=1") != want {
				t.Errorf("%s -detector %s: first round overlapped = %v, want %v", prog, r.name, !want, want)
			}
			outs = append(outs, stdout)
		}
		for i, o := range outs[1:] {
			if o != outs[0] {
				t.Errorf("%s -detector %s repaired source differs from mrw", prog, runs[i+1].name)
			}
		}
	}
}

// TestHjrepairWitness: -witness replays the races to concrete
// divergence witnesses, verifies the repair under adversarial
// schedules, and records both in the explain document.
func TestHjrepairWitness(t *testing.T) {
	dir := t.TempDir()
	explain := filepath.Join(dir, "explain.json")
	_, stderr, code := runTool(t, "hjrepair", "-quiet", "-witness", "-vet", "-sched-seed", "1",
		"-explain", explain, "-o", filepath.Join(dir, "fixed.hj"), "../testdata/buggy_fib.hj")
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "witness:") {
		t.Errorf("stderr has no witness lines: %s", stderr)
	}
	if !strings.Contains(stderr, "adversary: 0/") {
		t.Errorf("stderr missing the clean adversary tally: %s", stderr)
	}
	data, err := os.ReadFile(explain)
	if err != nil {
		t.Fatalf("read explain: %v", err)
	}
	for _, want := range []string{`"witnesses"`, `"adversary"`, `"schedule"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("explain JSON missing %s", want)
		}
	}
}

// writeStripped writes the named Table-1 benchmark at its repair size,
// finishes stripped, to a temp file and returns its path.
func writeStripped(t *testing.T, name string) string {
	t.Helper()
	for _, b := range bench.All() {
		if b.Name != name {
			continue
		}
		p, err := tdr.Load(b.Src(b.RepairSize))
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		p.StripFinishes()
		return writeProg(t, "stripped.hj", p.Source())
	}
	t.Fatalf("no benchmark %q", name)
	return ""
}

// TestHjrepairWitnessPerClass: -witness searches once per static race.
// Finish-stripped SOR has 20,580 races in 3 static races, so it prints
// 3 witness lines, whose race counts add up to the summary's, and its
// witness-search span reports 3 targets. The timeout fails a search
// that runs per racing location again.
func TestHjrepairWitnessPerClass(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "run.jsonl")
	_, stderr, code := runTool(t, "hjrepair", "-vet", "-witness", "-sched-seed", "1", "-timeout", "60s",
		"-jsonl", jsonl, "-o", filepath.Join(t.TempDir(), "out.hj"), writeStripped(t, "SOR"))
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "hjrepair: 20580 race(s) found") {
		t.Errorf("summary does not report SOR's 20580 races: %s", stderr)
	}
	lines := regexp.MustCompile(`(?m)^hjrepair: witness: .* \((\d+) race\(s\)\) under `).FindAllStringSubmatch(stderr, -1)
	races := 0
	for _, m := range lines {
		n, _ := strconv.Atoi(m[1])
		races += n
	}
	if len(lines) != 3 || races != 20580 {
		t.Errorf("%d witness lines for %d races, want 3 for 20580:\n%s", len(lines), races, stderr)
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
	targets := int64(-1)
	for _, r := range recs {
		for _, a := range r.Attrs {
			if r.Name == "witness-search" && a.Key == "targets" {
				targets = a.Int
			}
		}
	}
	if targets != 3 {
		t.Errorf("witness-search span reports %d targets, want 3", targets)
	}
}

// TestNegativeNumericFlagsAreUsageErrors: a negative count, bound or
// timeout is a usage error (exit 2) naming the flag, not a silent
// default or an empty run.
func TestNegativeNumericFlagsAreUsageErrors(t *testing.T) {
	prog := "../testdata/buggy_fib.hj"
	for _, c := range []struct {
		tool, flag, value string
		rest              []string
	}{
		{"hjrepair", "-max-iter", "-1", []string{prog}},
		{"hjrepair", "-j", "-2", []string{prog}},
		{"hjrepair", "-adversary", "-3", []string{prog}},
		{"hjrepair", "-max-dp-states", "-1", []string{prog}},
		{"hjrepair", "-timeout", "-1s", []string{prog}},
		{"hjrun", "-workers", "-1", []string{prog}},
		{"hjrun", "-adversary", "-3", []string{"-mode", "stress", prog}},
		{"hjrun", "-timeout", "-1s", []string{prog}},
		{"hjbench", "-runs", "-2", []string{"-fig", "16"}},
		{"hjbench", "-j", "-1", []string{"-fig", "4"}},
		{"hjbench", "-timeout", "-1s", []string{"-fig", "4"}},
	} {
		args := append([]string{c.flag, c.value}, c.rest...)
		stdout, stderr, code := runTool(t, c.tool, args...)
		if code != 2 || !strings.Contains(stderr, c.flag+" must not be negative") || stdout != "" {
			t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want exit 2 naming %s and no output",
				c.tool, args, code, stdout, firstLine(stderr), c.flag)
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// TestHjrepairWitnessedUnrepairedExitCode: running out of iterations
// with at least one witnessed race exits 7 (proven-observable races
// remain), not the plain exhaustion code 3.
func TestHjrepairWitnessedUnrepairedExitCode(t *testing.T) {
	_, stderr, code := runTool(t, "hjrepair", "-quiet", "-witness", "-max-iter", "1", "../testdata/buggy_fib.hj")
	if code != 7 {
		t.Fatalf("exit = %d, want 7 (witnessed but unrepaired); stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "witness:") {
		t.Errorf("stderr has no witness lines: %s", stderr)
	}
}

// TestHjrunStress: adversarial stress diverges on a racy program (exit
// 7 with a replayable witness) and passes an expert race-free one.
func TestHjrunStress(t *testing.T) {
	_, stderr, code := runTool(t, "hjrun", "-mode", "stress", "-sched-seed", "1", "../examples/hj/counter.hj")
	if code != 7 {
		t.Fatalf("exit = %d, want 7; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "witness: replay with schedule") {
		t.Errorf("stderr missing the replayable witness: %s", stderr)
	}

	_, stderr, code = runTool(t, "hjrun", "-mode", "stress", "-adversary", "8", "../testdata/quicksort.hj")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 for the race-free program; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "0/8 schedule(s) diverged") {
		t.Errorf("stderr missing the clean stress tally: %s", stderr)
	}
}

// TestHjrepairGapVerdict: the bundled unexercised.hj example's gated
// writer is reported unreachable by the gap search.
func TestHjrepairGapVerdict(t *testing.T) {
	_, stderr, code := runTool(t, "hjrepair", "-quiet", "-witness", "-vet",
		"-o", filepath.Join(t.TempDir(), "out.hj"), "../examples/hj/unexercised.hj")
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "gap unreachable:") {
		t.Errorf("stderr missing the unreachable gap verdict: %s", stderr)
	}
}
