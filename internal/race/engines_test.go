package race_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// fuzzCorpusSeeds decodes the checked-in Go fuzz corpus: each file is
// "go test fuzz v1" followed by one string(...) literal.
func fuzzCorpusSeeds(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "..", "tdr", "testdata", "fuzz", "FuzzRepairRoundTrip")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus: %v", err)
	}
	seeds := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			src, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			seeds[e.Name()] = src
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no fuzz corpus seeds decoded")
	}
	return seeds
}

// analyzeIndependently analyzes tr with two independent engines, an
// ESP-Bags one and a vector-clock one (two shadow memories, two scans),
// and compares their race sets: endpoint steps, location, access-pair
// kind, and the NS-LCA group the repair would place a finish for. Both
// engines see the same replayed tree, so node IDs are comparable. It
// returns the ESP-Bags engine and a description of the first difference,
// if any.
func analyzeIndependently(t *testing.T, tr *trace.Trace, prog *ast.Program, v race.Variant, noCollapse bool) (race.Engine, string) {
	t.Helper()
	type sig struct {
		src, dst, nslca int
		loc             uint64
		kind            race.Kind
	}
	var engs [2]race.Engine
	var sigs [2]map[sig]bool
	for i, k := range []race.EngineKind{race.EngineESPBags, race.EngineVC} {
		engs[i] = race.NewEngine(k, v)
		if _, err := race.Analyze(tr, prog, nil, engs[i], nil, noCollapse); err != nil {
			t.Fatalf("%s (%s, noCollapse=%v): %v", engs[i].Name(), v, noCollapse, err)
		}
		sigs[i] = map[sig]bool{}
		for _, r := range engs[i].Races() {
			s := sig{src: r.Src.ID, dst: r.Dst.ID, loc: r.Loc, kind: r.Kind}
			if l := dpst.NSLCA(r.Src, r.Dst); l != nil {
				s.nslca = l.ID
			}
			sigs[i][s] = true
		}
	}
	var diffs []string
	for i := range sigs {
		for s := range sigs[i] {
			if !sigs[1-i][s] {
				diffs = append(diffs, fmt.Sprintf("%s: step %d -> step %d @loc %d (nslca %d) [%s only]",
					s.kind, s.src, s.dst, s.loc, s.nslca, engs[i].Name()))
			}
		}
	}
	if len(diffs) == 0 {
		return engs[0], ""
	}
	sort.Strings(diffs)
	return engs[0], fmt.Sprintf("espbags found %d race(s), vc found %d; %s",
		len(engs[0].Races()), len(engs[1].Races()), diffs[0])
}

// checkEnginesAgree captures src once and analyzes the trace with
// independent ESP-Bags and vector-clock engines under both variants and
// both collapse policies; any race-set disagreement fails. The fused
// engine must report the ESP-Bags race stream exactly, order included,
// with every ordering query agreeing. Programs that exceed the op
// budget (e.g. corpus seeds with infinite loops) or fail semantic
// checks are skipped.
func checkEnginesAgree(t *testing.T, name, src string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		return
	}
	ast.StripFinishes(prog)
	info, err := sem.Check(prog)
	if err != nil {
		return
	}
	m := guard.NewMeter(context.Background(), guard.Budget{OpLimit: 2_000_000})
	_, tr, err := race.Capture(info, m)
	if err != nil {
		t.Logf("%s: capture skipped: %v", name, err)
		return
	}
	for _, v := range []race.Variant{race.VariantSRW, race.VariantMRW} {
		for _, noCollapse := range []bool{false, true} {
			bags, diff := analyzeIndependently(t, tr, info.Prog, v, noCollapse)
			if diff != "" {
				t.Errorf("%s (%s, noCollapse=%v): %s", name, v, noCollapse, diff)
			}
			fused := race.NewFused(v)
			if _, err := race.Analyze(tr, info.Prog, nil, fused, nil, noCollapse); err != nil {
				t.Fatalf("%s (%s, noCollapse=%v): fused %v", name, v, noCollapse, err)
			}
			if err := fused.Check(); err != nil {
				t.Errorf("%s (%s, noCollapse=%v): fused %v", name, v, noCollapse, err)
			}
			if want, got := seqFingerprint(bags), seqFingerprint(fused); !reflect.DeepEqual(want, got) {
				t.Errorf("%s (%s, noCollapse=%v): fused race stream differs\nespbags %v\nfused   %v",
					name, v, noCollapse, want, got)
			}
			fused.Release()
		}
	}
}

// TestEnginesAgreeOnBenchPrograms is the differential property over the
// paper's benchmark suite: for every program, ESP-Bags and the
// vector-clock detector must report identical race sets — same
// variables, same access pairs, same NS-LCA groups.
func TestEnginesAgreeOnBenchPrograms(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkEnginesAgree(t, b.Name, b.Src(b.RepairSize))
		})
	}
}

// TestEnginesAgreeOnFuzzCorpus runs the same property over every seed
// of the checked-in repair fuzz corpus.
func TestEnginesAgreeOnFuzzCorpus(t *testing.T) {
	for name, src := range fuzzCorpusSeeds(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkEnginesAgree(t, name, src)
		})
	}
}

// TestEnginesAgreeOnGeneratedPrograms fuzzes the property further with
// deterministic generated programs.
func TestEnginesAgreeOnGeneratedPrograms(t *testing.T) {
	for seed := int64(5000); seed < 5040; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			checkEnginesAgree(t, fmt.Sprintf("progen-%d", seed), progen.Gen(seed, progen.Default()))
		})
	}
}

// seqFingerprint renders races in their reported sequence order,
// unsorted, so comparisons check the race stream exactly, ordering
// included, not just the same set.
func seqFingerprint(det race.Detector) []string {
	var out []string
	for _, r := range det.Races() {
		out = append(out, fmt.Sprintf("%s:%d->%d@%d", r.Kind, r.Src.ID, r.Dst.ID, r.Loc))
	}
	return out
}

// TestFusedMatchesIndependentEngines checks that the fused dual-oracle
// engine reports exactly the races of independently run ESP-Bags and
// vector-clock engines on every benchmark program, with a clean
// per-query cross-check.
func TestFusedMatchesIndependentEngines(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := parser.Parse(b.Src(b.RepairSize))
			if err != nil {
				t.Fatal(err)
			}
			ast.StripFinishes(prog)
			info, err := sem.Check(prog)
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := race.Capture(info, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []race.Variant{race.VariantSRW, race.VariantMRW} {
				bags, diff := analyzeIndependently(t, tr, info.Prog, v, false)
				if diff != "" {
					t.Fatalf("independent engines disagree (%s): %s", v, diff)
				}
				fused := race.NewFused(v)
				if _, err := race.Analyze(tr, info.Prog, nil, fused, nil, false); err != nil {
					t.Fatal(err)
				}
				if err := fused.Check(); err != nil {
					t.Fatalf("fused cross-check (%s): %v", v, err)
				}
				want, got := seqFingerprint(bags), seqFingerprint(fused)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("race streams differ (%s):\nespbags %v\nfused   %v", v, want, got)
				}
				fused.Release()
				bags.Release()
			}
		})
	}
}
