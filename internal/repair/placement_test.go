package repair_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

// TestContractPlacementCorpus checks the serial-run merge on every
// placement problem the repair loop solves on the 37-program set — the
// Table-1 programs at repair size and testdata, finish-stripped;
// examples/hj and testdata/vet as written; and the FuzzRepairRoundTrip
// corpus — under MRW and SRW with the finish and auto strategies.
func TestContractPlacementCorpus(t *testing.T) {
	var progs []repairCase
	for _, b := range bench.All() {
		progs = append(progs, repairCase{name: b.Name, src: b.Src(b.RepairSize), strip: true})
	}
	for _, dir := range []string{"testdata", "examples/hj", "testdata/vet"} {
		files, err := filepath.Glob(filepath.Join("..", "..", dir, "*.hj"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v (%d files)", dir, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, repairCase{name: f, src: string(src), strip: dir == "testdata"})
		}
	}
	for name, src := range repairFuzzCorpus(t) {
		progs = append(progs, repairCase{name: "fuzz/" + name, src: src, budget: true})
	}
	if len(progs) != 37 {
		t.Fatalf("%d programs, want the 37-program set", len(progs))
	}
	var problems, merged int
	for _, c := range progs {
		for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
			for _, s := range []repair.Strategy{repair.StrategyFinish, repair.StrategyAuto} {
				opts := repair.Options{Variant: v, Strategy: s, MaxIterations: 30}
				if c.budget {
					opts.Meter = guard.NewMeter(context.Background(), guard.Budget{OpLimit: 2_000_000})
				}
				name := strings.Join([]string{c.name, v.String(), s.String()}, " ")
				_, _ = repair.EachPlacementProblem(t, sem.MustCheck(c.input()), opts, func(round int, p *repair.Problem) {
					problems++
					if m, _ := repair.CheckContraction(t, name, p); m {
						merged++
					}
				})
			}
		}
	}
	t.Logf("%d placement problems, %d merged serial runs", problems, merged)
	if merged == 0 {
		t.Fatal("no placement problem merged a serial run")
	}
}

// TestContractPinsTable1Sizes pins what the serial-run merge does to
// round 0's largest placement problem of three finish-stripped Table-1
// programs at repair size: the vertices and DP states of the kernel
// alone and of Solve, the same counts in the explain record, and the
// same cost and finishes either way.
func TestContractPinsTable1Sizes(t *testing.T) {
	for _, c := range []struct {
		name                  string
		vertices, dpVertices  int
		denseStates, dpStates int64
	}{
		{"LUFact", 535, 364, 25_521_640, 8_038_030},
		{"Spanning Tree", 143, 98, 487_344, 156_849},
		{"Sparse", 144, 98, 497_640, 156_849},
	} {
		t.Run(c.name, func(t *testing.T) {
			var p *repair.Problem
			ex := &provenance.Explain{}
			_, err := repair.EachPlacementProblem(t, sem.MustCheck(strippedTable1(t, c.name)), repair.Options{Explain: ex},
				func(round int, q *repair.Problem) {
					if round == 0 && (p == nil || q.N > p.N) {
						p = q
					}
				})
			if err != nil || p == nil {
				t.Fatalf("repair: %v (round 0 problem %v)", err, p != nil)
			}
			dense, err := repair.SolveDense(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := repair.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if dense.Vertices != c.vertices || dense.States != c.denseStates {
				t.Errorf("kernel alone: %d vertices, %d states; want %d, %d", dense.Vertices, dense.States, c.vertices, c.denseStates)
			}
			if got.Vertices != c.dpVertices || got.States != c.dpStates {
				t.Errorf("Solve: %d vertices, %d states; want %d, %d", got.Vertices, got.States, c.dpVertices, c.dpStates)
			}
			if got.Cost != dense.Cost || !reflect.DeepEqual(got.Finishes, dense.Finishes) {
				t.Errorf("Solve: cost %d, finishes %v; kernel alone: cost %d, finishes %v", got.Cost, got.Finishes, dense.Cost, dense.Finishes)
			}
			found := false
			for _, g := range ex.Iterations[0].Groups {
				if g.Vertices == c.vertices {
					found = true
					if g.DPVertices != c.dpVertices || g.DPStates != c.dpStates {
						t.Errorf("explain record: dp_vertices %d, dp_states %d; want %d, %d", g.DPVertices, g.DPStates, c.dpVertices, c.dpStates)
					}
				}
			}
			if !found {
				t.Errorf("explain record has no %d-vertex group in round 0", c.vertices)
			}
		})
	}
}

// BenchmarkPlaceLUFact solves round 0's largest placement problem of
// finish-stripped LUFact at repair size, 535 vertices, with the kernel
// alone and with Solve, which merges the serial runs first. states/op
// is the DP states each explores.
func BenchmarkPlaceLUFact(b *testing.B) {
	var p *repair.Problem
	_, _ = repair.EachPlacementProblem(b, sem.MustCheck(strippedTable1(b, "LUFact")), repair.Options{MaxIterations: 1},
		func(_ int, q *repair.Problem) {
			if p == nil || q.N > p.N {
				p = q
			}
		})
	for _, k := range []struct {
		name  string
		solve func(*repair.Problem) (*repair.Solution, error)
	}{
		{"dense", func(p *repair.Problem) (*repair.Solution, error) { return repair.SolveDense(p, nil) }},
		{"contracted", repair.Solve},
	} {
		b.Run(k.name, func(b *testing.B) {
			var states int64
			for i := 0; i < b.N; i++ {
				sol, err := k.solve(p)
				if err != nil {
					b.Fatal(err)
				}
				states = sol.States
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}
