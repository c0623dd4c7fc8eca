package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"finishrepair/internal/analysis"
	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

// soundnessProgram is one (name, source) pair fed to the cross-check.
type soundnessProgram struct {
	name string
	src  string
}

// soundnessCorpus is every runnable HJ-lite program bundled with the
// repo: each benchmark at its repair size (as shipped and with all
// finishes stripped — the maximally racy variant), plus every .hj file
// under testdata/, testdata/vet/, and examples/hj/.
func soundnessCorpus(t *testing.T) []soundnessProgram {
	t.Helper()
	var out []soundnessProgram
	for _, b := range bench.All() {
		src := b.Src(b.RepairSize)
		out = append(out, soundnessProgram{b.Name, src})
		prog := parser.MustParse(src)
		ast.StripFinishes(prog)
		out = append(out, soundnessProgram{b.Name + "-stripped", stripSrc(prog)})
	}
	for _, dir := range []string{
		filepath.Join("..", "..", "testdata"),
		filepath.Join("..", "..", "testdata", "vet"),
		filepath.Join("..", "..", "examples", "hj"),
	} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.hj"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			b, err := os.ReadFile(m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, soundnessProgram{filepath.ToSlash(m), string(b)})
		}
	}
	return out
}

func stripSrc(prog *ast.Program) string { return printer.Print(prog) }

// TestStaticCoversDynamic is the soundness cross-check the static
// analysis is designed around: for every bundled program, every data
// race the dynamic detector finds on the canonical sequential execution
// must be contained in the static candidate set, and its endpoints must
// be statically may-happen-in-parallel (so pruning race groups the MHP
// relation calls serial could never change a repair). The test also
// requires that the S-DPST→statement mapping actually resolved for most
// races, so the conservative fall-through cannot quietly satisfy the
// assertion.
func TestStaticCoversDynamic(t *testing.T) {
	resolvedChecks := 0
	for _, p := range soundnessCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			prog, err := parser.Parse(p.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			info, err := sem.Check(prog)
			if err != nil {
				t.Fatalf("sem: %v", err)
			}
			res := analysis.Analyze(info, nil)

			_, _, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
			if err != nil {
				t.Fatalf("detect: %v", err)
			}
			for _, r := range det.Races() {
				if !res.Covers(r.Src, r.Dst) {
					t.Errorf("dynamic race not in static candidate set: %v", r)
				}
				if !res.MayRunInParallel(r.Src, r.Dst) {
					t.Errorf("dynamic race statically serial (pruning would drop it): %v", r)
				}
				if res.Resolvable(r.Src) && res.Resolvable(r.Dst) {
					resolvedChecks++
				}
			}
		})
	}
	if resolvedChecks == 0 {
		t.Fatalf("no race had both endpoints resolved to statements; the cross-check was vacuous")
	}
}
