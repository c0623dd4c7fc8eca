package repair_test

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/cpl"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

// repairGoldenPath pins the repair loop's result on every golden case:
// a hash of the printed source, the insertion count, the races of each
// iteration and a hash of the final Output. It was generated before the
// re-executing repair loop was deleted, and every finish-strategy row
// was written only where that loop (which rewrote and re-ran the program
// each round) agreed with the trace-replay loop on source, Output,
// insertions and per-iteration races, so the file carries the old
// differential oracle's verdict. It has no update flag: a mismatch is a
// real change to the repair.
const repairGoldenPath = "testdata/repaired.golden"

// repairCase is one repair run of the golden and certification tests.
type repairCase struct {
	name     string
	src      string
	strip    bool // strip the input's finishes first
	variant  race.Variant
	strategy repair.Strategy
	// budget caps the op count: fuzz seeds need not terminate.
	budget bool
}

// goldenCases are the Table-1 programs at repair size (finish-stripped)
// under {MRW, SRW} × {finish, auto}, the testdata programs (stripped)
// and examples/hj under MRW × {finish, auto}, and the FuzzRepairRoundTrip
// corpus under MRW with finish.
func goldenCases(t *testing.T) []repairCase {
	t.Helper()
	strategies := []repair.Strategy{repair.StrategyFinish, repair.StrategyAuto}
	var cases []repairCase
	for _, b := range bench.All() {
		for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
			for _, s := range strategies {
				cases = append(cases, repairCase{
					name: strings.ReplaceAll(b.Name, " ", "_"), src: b.Src(b.RepairSize),
					strip: true, variant: v, strategy: s,
				})
			}
		}
	}
	for _, dir := range []string{"testdata", "examples/hj"} {
		files, err := filepath.Glob(filepath.Join("..", "..", dir, "*.hj"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v (%d files)", dir, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range strategies {
				cases = append(cases, repairCase{
					name: strings.TrimSuffix(filepath.Base(f), ".hj"), src: string(src),
					strip: dir == "testdata", variant: race.VariantMRW, strategy: s,
				})
			}
		}
	}
	for name, src := range repairFuzzCorpus(t) {
		cases = append(cases, repairCase{
			name: "fuzz-" + name, src: src,
			variant: race.VariantMRW, strategy: repair.StrategyFinish, budget: true,
		})
	}
	for i := range cases {
		c := &cases[i]
		c.name = fmt.Sprintf("%s-%s-%s", c.name, c.variant, c.strategy)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })
	return cases
}

// repairFuzzCorpus decodes the checked-in FuzzRepairRoundTrip corpus:
// each file is "go test fuzz v1" followed by one string(...) literal.
func repairFuzzCorpus(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "..", "tdr", "testdata", "fuzz", "FuzzRepairRoundTrip")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("fuzz corpus: %v (%d files)", err, len(entries))
	}
	seeds := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			lit, ok := strings.CutPrefix(strings.TrimSpace(line), "string(")
			if !ok || !strings.HasSuffix(lit, ")") {
				continue
			}
			if seeds[e.Name()], err = strconv.Unquote(strings.TrimSuffix(lit, ")")); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
		}
	}
	return seeds
}

// repairRun is one executed repairCase: the input's one check, whose
// Prog the repair rewrote in place, the report, the explain record and
// the repair error, if any.
type repairRun struct {
	info    *sem.Info
	rep     *repair.Report
	explain *provenance.Explain
	err     error
}

// input parses the case's program, stripped of finishes if asked.
func (c repairCase) input() *ast.Program {
	prog := parser.MustParse(c.src)
	if c.strip {
		ast.StripFinishes(prog)
	}
	return prog
}

func (c repairCase) run(t *testing.T) repairRun {
	t.Helper()
	info := sem.MustCheck(c.input())
	opts := repair.Options{
		Variant:       c.variant,
		Strategy:      c.strategy,
		MaxIterations: 30,
		Explain:       &provenance.Explain{},
	}
	if c.budget {
		opts.Meter = guard.NewMeter(context.Background(), guard.Budget{OpLimit: 2_000_000})
	}
	rep, err := repair.RepairChecked(info, opts)
	return repairRun{info: info, rep: rep, explain: opts.Explain, err: err}
}

func hash64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRow renders a run as its repaired.golden line.
func (r repairRun) goldenRow(name string) string {
	races := make([]string, len(r.rep.Iterations))
	for i, it := range r.rep.Iterations {
		races[i] = strconv.Itoa(it.Races)
	}
	row := fmt.Sprintf("%s src=%s inserted=%d iterations=%d races=%s out=%s",
		name, hash64(printer.Print(r.info.Prog)), r.rep.Inserted, len(r.rep.Iterations),
		strings.Join(races, ","), hash64(r.rep.Output))
	if r.err != nil {
		row += fmt.Sprintf(" err=%q", r.err.Error())
	}
	return row
}

// TestRepairGolden replays every golden case and compares it with the
// row recorded in repaired.golden.
func TestRepairGolden(t *testing.T) {
	f, err := os.Open(repairGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		want[name] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases(t)
	if len(cases) != len(want) {
		t.Errorf("%d golden cases, %d rows in %s", len(cases), len(want), repairGoldenPath)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			row, ok := want[c.name]
			if !ok {
				t.Fatalf("no row for %s in %s", c.name, repairGoldenPath)
			}
			if got := c.run(t).goldenRow(c.name); got != row {
				t.Errorf("repair changed\n got: %s\nwant: %s", got, row)
			}
		})
	}
}

// certifyCases are the golden cases plus progen seeds 1-200, with the
// default configuration and with commutative reductions, under
// {MRW, SRW} × {finish, auto}.
func certifyCases(t *testing.T) []repairCase {
	cases := goldenCases(t)
	commute := progen.Default()
	commute.Commute = true
	for seed := int64(1); seed <= 200; seed++ {
		for _, g := range []struct {
			name string
			cfg  progen.Config
		}{{"progen", progen.Default()}, {"progen-commute", commute}} {
			for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
				for _, s := range []repair.Strategy{repair.StrategyFinish, repair.StrategyAuto} {
					cases = append(cases, repairCase{
						name:    fmt.Sprintf("%s-%d-%s-%s", g.name, seed, v, s),
						src:     progen.Gen(seed, g.cfg),
						variant: v, strategy: s,
					})
				}
			}
		}
	}
	return cases
}

// TestRepairedProgramCertifies checks the paper's guarantees on the
// artifact the user receives, the printed program, rather than on the
// loop's virtual-finish model:
//
//  1. the repaired AST, run on the input's one check with no re-check,
//     has the Work and Span the last explain iteration recorded for the
//     replayed tree: the check stays valid across the repair's rewrite;
//  2. the printed program re-parses, passes sem, and MRW ESP-Bags finds
//     no race in it;
//  3. its Output equals the input's serial elision, the serial elision
//     of the repaired AST on that same check, and the report's Output,
//     and its Work and Span equal that same critical path.
func TestRepairedProgramCertifies(t *testing.T) {
	for _, c := range certifyCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			r := c.run(t)
			if r.err != nil {
				t.Skipf("repair failed: %v", r.err)
			}
			its := r.explain.Iterations
			if len(its) == 0 || its[len(its)-1].CPL == nil {
				t.Fatal("explain record has no final critical path")
			}
			want := *its[len(its)-1].CPL

			tree, err := race.Tree(r.info)
			if err != nil {
				t.Fatalf("repaired AST: %v", err)
			}
			if m := cpl.Analyze(tree); m.Work != want.Work || m.Span != want.Span {
				t.Errorf("repaired AST work/span = %d/%d, final replay predicted %d/%d", m.Work, m.Span, want.Work, want.Span)
			}
			repairedElision, err := interp.Run(r.info, interp.Options{Mode: interp.Elide})
			if err != nil {
				t.Fatalf("serial elision of the repaired AST: %v", err)
			}

			src := printer.Print(r.info.Prog)
			printed, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("printed program does not parse: %v\n%s", err, src)
			}
			info, err := sem.Check(printed)
			if err != nil {
				t.Fatalf("printed program fails sem: %v\n%s", err, src)
			}
			res, ptree, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
			if err != nil {
				t.Fatalf("printed program: %v", err)
			}
			if races := det.Races(); len(races) != 0 {
				t.Errorf("printed program has %d race(s) under MRW, first %v\n%s", len(races), races[0], src)
			}
			if m := cpl.Analyze(ptree); m.Work != want.Work || m.Span != want.Span {
				t.Errorf("printed program work/span = %d/%d, final replay predicted %d/%d", m.Work, m.Span, want.Work, want.Span)
			}

			elision, err := interp.Run(sem.MustCheck(c.input()), interp.Options{Mode: interp.Elide})
			if err != nil {
				t.Fatalf("serial elision: %v", err)
			}
			if res.Output != elision.Output || res.Output != repairedElision.Output || res.Output != r.rep.Output {
				t.Errorf("printed program output %q; serial elision %q; repaired AST's elision %q; report %q",
					res.Output, elision.Output, repairedElision.Output, r.rep.Output)
			}
		})
	}
}
