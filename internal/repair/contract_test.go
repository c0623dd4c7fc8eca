package repair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
)

// serialProblem draws a sparse, mostly serial instance, shaped like the
// loop-header runs between a group's asyncs: randomProblem's sizes,
// times and VALID, but few asyncs and few edges, so that Solve merges
// serial runs in many of them.
func serialProblem(rng *rand.Rand, maxN int) *Problem {
	p := randomProblem(rng, maxN)
	for i := range p.Async {
		p.Async[i] = rng.Intn(6) == 0
	}
	edges := p.Edges[:0]
	for _, e := range p.Edges {
		if rng.Intn(8) == 0 {
			edges = append(edges, e)
		}
	}
	p.Edges = edges
	return p
}

// checkContraction solves p with Solve and with the kernel alone and
// fails unless both give the same cost and finish list (order included),
// or both find p unsatisfiable, in which case the block Solve names must
// itself be unsatisfiable. Solve must ask Valid at most once per block.
// It reports whether p has serial runs to merge, and whether it is
// unsatisfiable.
func checkContraction(t testing.TB, name string, p *Problem) (merged, unsat bool) {
	t.Helper()
	merged = p.Valid != nil && serialRuns(p, &validMemo{n: p.N, valid: p.Valid, memo: make([]uint8, p.N*p.N)}) != nil
	want, wantErr := solveDense(p, nil)

	counted := *p
	if p.Valid != nil {
		asked := make(map[[2]int]bool)
		counted.Valid = func(s, e int) bool {
			if asked[[2]int{s, e}] {
				t.Fatalf("%s: Valid(%d, %d) asked twice", name, s, e)
			}
			asked[[2]int{s, e}] = true
			return p.Valid(s, e)
		}
	}
	got, gotErr := Solve(&counted)

	var gotU *UnsatisfiableError
	switch {
	case errors.As(gotErr, &gotU):
		var u *UnsatisfiableError
		if !errors.As(wantErr, &u) {
			t.Fatalf("%s: Solve: %v, kernel: %v", name, gotErr, wantErr)
		}
		if _, err := solveDense(subProblem(p, gotU.I, gotU.J), nil); !errors.As(err, &u) {
			t.Fatalf("%s: Solve names block %d..%d, which the kernel solves alone (%v)", name, gotU.I, gotU.J, err)
		}
		return merged, true
	case gotErr != nil || wantErr != nil:
		t.Fatalf("%s: Solve: %v, kernel: %v", name, gotErr, wantErr)
	case got.Cost != want.Cost || !reflect.DeepEqual(got.Finishes, want.Finishes):
		t.Fatalf("%s (n=%d, merged to %d): Solve cost %d finishes %v, kernel cost %d finishes %v",
			name, p.N, got.Vertices, got.Cost, got.Finishes, want.Cost, want.Finishes)
	case want.Vertices != p.N || (got.Vertices < p.N) != merged:
		t.Fatalf("%s: %d vertices, Solve solved %d, kernel %d", name, p.N, got.Vertices, want.Vertices)
	}
	return merged, false
}

// TestSolveMatchesDenseKernel checks the serial-run merge on random
// problems: randomProblem's and serialProblem's, which merge runs far
// more often.
func TestSolveMatchesDenseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const trials = 40000
	var contracted, unsat, both int
	for trial := 0; trial < trials; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomProblem(rng, 24)
		} else {
			p = serialProblem(rng, 40)
		}
		merged, u := checkContraction(t, fmt.Sprintf("trial %d", trial), p)
		if merged {
			contracted++
		}
		if u {
			unsat++
			if merged {
				both++
			}
		}
	}
	t.Logf("%d of %d problems merged serial runs; %d unsatisfiable, %d of them merged", contracted, trials, unsat, both)
	if contracted < trials/20 || both < 100 {
		t.Fatal("the generators no longer exercise the merge on satisfiable and unsatisfiable problems")
	}
}

// TestSolveMetersMergedProblem checks that Solve charges the Meter for
// the merged problem's states and stops when it trips: a DP-state budget
// one short of an unmetered Solve's states fails with the dp-states
// error, a budget equal to them succeeds with the same solution, and a
// cancelled context stops every merged problem large enough to reach the
// meter's check, which comes every 1,024 states.
func TestSolveMetersMergedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var trials, stopped int
	for trials < 500 {
		p := serialProblem(rng, 40)
		free, err := Solve(p)
		if err != nil || free.Vertices == p.N || free.States < 2 {
			continue
		}
		trials++
		name := fmt.Sprintf("problem %d (n=%d, merged to %d, %d states)", trials, p.N, free.Vertices, free.States)
		for _, budget := range []int64{free.States - 1, free.States} {
			q := *p
			q.Meter = guard.NewMeter(context.Background(), guard.Budget{MaxDPStates: budget})
			got, err := Solve(&q)
			var be *guard.BudgetExceededError
			switch {
			case budget < free.States:
				if !errors.As(err, &be) || be.Resource != guard.ResourceDPStates {
					t.Fatalf("%s, budget %d: got %v, want the dp-states budget error", name, budget, err)
				}
			case err != nil:
				t.Fatalf("%s, budget %d: %v", name, budget, err)
			case got.Cost != free.Cost || !reflect.DeepEqual(got.Finishes, free.Finishes) || q.Meter.DPStates() != free.States:
				t.Fatalf("%s, budget %d: cost %d, finishes %v, %d states charged; unmetered cost %d, finishes %v",
					name, budget, got.Cost, got.Finishes, q.Meter.DPStates(), free.Cost, free.Finishes)
			}
		}
		if free.States >= 1024 {
			q := *p
			q.Meter = guard.NewMeter(cancelled, guard.Budget{})
			var ce *guard.CanceledError
			if _, err := Solve(&q); !errors.As(err, &ce) {
				t.Fatalf("%s under a cancelled context: got %v, want the cancellation error", name, err)
			}
			stopped++
		}
	}
	t.Logf("%d merged problems metered, %d of them also cancelled", trials, stopped)
	if stopped == 0 {
		t.Fatal("no merged problem was large enough to reach the meter's cancellation check")
	}
}

// eachPlacementProblem repairs info under opts and hands check the
// placement problem of every NS-LCA group the loop solves, in every
// round, while that round's S-DPST is live. round counts the detection
// rounds.
func eachPlacementProblem(t testing.TB, info *sem.Info, opts Options, check func(round int, p *Problem)) (*Report, error) {
	t.Helper()
	round := 0
	opts.OnRaces = func(races []*race.Race) {
		for _, g := range groupByNSLCA(races) {
			nodes, edges, err := depGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			if len(edges) > 0 && len(nodes) <= maxGraph {
				check(round, placementProblem(nodes, edges, nil))
			}
		}
		round++
	}
	return RepairChecked(info, opts)
}

// TestContractProgen checks the merge on every placement problem the
// repair loop solves on 1,000 progen programs of each configuration,
// the default and the one with commutative reductions, under the auto
// strategy.
func TestContractProgen(t *testing.T) {
	commute := progen.Default()
	commute.Commute = true
	var problems, contracted int
	for _, cfg := range []progen.Config{progen.Default(), commute} {
		for seed := int64(1); seed <= 1000; seed++ {
			prog := parser.MustParse(progen.Gen(seed, cfg))
			ast.StripFinishes(prog)
			label := fmt.Sprintf("progen seed %d commute=%v", seed, cfg.Commute)
			_, _ = eachPlacementProblem(t, sem.MustCheck(prog), Options{Strategy: StrategyAuto}, func(round int, p *Problem) {
				problems++
				if merged, _ := checkContraction(t, fmt.Sprintf("%s round %d", label, round), p); merged {
					contracted++
				}
			})
		}
	}
	t.Logf("%d placement problems, %d merged serial runs", problems, contracted)
	if contracted == 0 {
		t.Fatal("no placement problem merged a serial run")
	}
}
