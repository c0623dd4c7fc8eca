package repair_test

import (
	"testing"
	"testing/quick"

	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/parinterp"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

// The central end-to-end property (the paper's Problem 1): for ANY
// structured parallel program, repairing its finish-stripped version
// yields a program that (1) is data-race-free on the input, (2) has the
// semantics of the serial elision, and (3) still parses and checks after
// printing.
func TestRepairRandomProgramsEndToEnd(t *testing.T) {
	cfg := progen.Default()
	for seed := int64(1000); seed < 1100; seed++ {
		src := progen.Gen(seed, cfg)

		// Reference: the serial elision.
		ref := parser.MustParse(src)
		ast.StripFinishes(ref)
		refInfo := sem.MustCheck(ref)
		refRes, err := interp.Run(refInfo, interp.Options{Mode: interp.Elide})
		if err != nil {
			t.Fatalf("seed %d elision: %v", seed, err)
		}

		// Strip + repair.
		prog := parser.MustParse(src)
		ast.StripFinishes(prog)
		rep, err := repair.Repair(prog, repair.Options{})
		if err != nil {
			t.Fatalf("seed %d repair: %v\n%s", seed, err, src)
		}
		if rep.Output != refRes.Output {
			t.Fatalf("seed %d: repaired output %q != elision %q\n%s",
				seed, rep.Output, refRes.Output, printer.Print(prog))
		}

		// Race-free after repair (independent re-check with the other
		// oracle).
		info := sem.MustCheck(prog)
		_, det, err := race.Detect(info, race.VariantMRW, race.NewDPSTOracle())
		if err != nil {
			t.Fatalf("seed %d recheck: %v", seed, err)
		}
		if n := len(det.Races()); n != 0 {
			t.Fatalf("seed %d: %d races remain\n%s", seed, n, printer.Print(prog))
		}

		// The repaired source round-trips.
		printed := printer.Print(prog)
		reparsed, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("seed %d: repaired source unparsable: %v", seed, err)
		}
		if _, err := sem.Check(reparsed); err != nil {
			t.Fatalf("seed %d: repaired source ill-typed: %v", seed, err)
		}
	}
}

// SRW-driven repair must converge to the same race-free semantics even
// though each run sees only a subset of the races.
func TestRepairRandomProgramsSRW(t *testing.T) {
	cfg := progen.Default()
	for seed := int64(2000); seed < 2030; seed++ {
		src := progen.Gen(seed, cfg)
		ref := parser.MustParse(src)
		ast.StripFinishes(ref)
		refRes, err := interp.Run(sem.MustCheck(ref), interp.Options{Mode: interp.Elide})
		if err != nil {
			t.Fatal(err)
		}
		prog := parser.MustParse(src)
		ast.StripFinishes(prog)
		rep, err := repair.Repair(prog, repair.Options{Variant: race.VariantSRW, MaxIterations: 30})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if rep.Output != refRes.Output {
			t.Fatalf("seed %d: SRW repair changed semantics", seed)
		}
	}
}

// Repaired programs must run correctly with REAL parallelism: the
// taskpar execution equals the serial elision. (Run with -race to also
// have the Go race detector cross-check race freedom.)
func TestRepairedProgramsRunParallel(t *testing.T) {
	cfg := progen.Default()
	for seed := int64(3000); seed < 3020; seed++ {
		src := progen.Gen(seed, cfg)
		prog := parser.MustParse(src)
		ast.StripFinishes(prog)
		rep, err := repair.Repair(prog, repair.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		info := sem.MustCheck(prog)
		for try := 0; try < 3; try++ {
			res, err := parinterp.Run(info, parinterp.Options{})
			if err != nil {
				t.Fatalf("seed %d: parallel run: %v", seed, err)
			}
			if res.Output != rep.Output {
				t.Fatalf("seed %d try %d: parallel %q != sequential %q\n%s",
					seed, try, res.Output, rep.Output, printer.Print(prog))
			}
		}
	}
}

// Idempotence: repairing an already-race-free program inserts nothing.
func TestRepairIdempotent(t *testing.T) {
	cfg := progen.Default()
	for seed := int64(4000); seed < 4030; seed++ {
		src := progen.Gen(seed, cfg)
		prog := parser.MustParse(src)
		ast.StripFinishes(prog)
		if _, err := repair.Repair(prog, repair.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := printer.Print(prog)
		rep2, err := repair.Repair(prog, repair.Options{})
		if err != nil {
			t.Fatalf("seed %d second repair: %v", seed, err)
		}
		if rep2.Inserted != 0 {
			t.Fatalf("seed %d: second repair inserted %d finishes", seed, rep2.Inserted)
		}
		if printer.Print(prog) != before {
			t.Fatalf("seed %d: second repair modified the program", seed)
		}
	}
}

// ----------------------------------------------------------------------
// DP solver properties (the brute-force and reference oracles are in
// dp_test.go).

// Property (quick): without edges, the cost never exceeds the serial sum
// and never undercuts the maximum single vertex.
func TestSolveBounds(t *testing.T) {
	f := func(times []uint8, asyncMask uint16) bool {
		n := len(times)
		if n == 0 || n > 12 {
			return true
		}
		p := &repair.Problem{N: n, T: make([]int64, n), Async: make([]bool, n)}
		var sum, max int64
		for i, v := range times {
			p.T[i] = int64(v%31) + 1
			p.Async[i] = asyncMask&(1<<i) != 0
			sum += p.T[i]
			if p.T[i] > max {
				max = p.T[i]
			}
		}
		sol, err := repair.Solve(p)
		if err != nil {
			return false
		}
		return sol.Cost >= max && sol.Cost <= sum && len(sol.Finishes) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
