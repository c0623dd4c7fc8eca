package adversary

import (
	"context"
	"errors"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
)

func check(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog := parser.MustParse(src)
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem.Check: %v", err)
	}
	return info
}

// counterSrc is the canonical lost-update program: two asyncs increment
// a shared counter inside one finish. Sequential output "2"; the
// defer-write schedule tears both read-modify-writes to produce "1".
const counterSrc = `
var count = 0;
func main() {
    finish {
        async { count = count + 1; }
        async { count = count + 1; }
    }
    println(count);
}
`

// repairedCounterSrc serializes the increments: race-free, so every
// schedule must agree with the oracle.
const repairedCounterSrc = `
var count = 0;
func main() {
    finish {
        finish { async { count = count + 1; } }
        async { count = count + 1; }
    }
    println(count);
}
`

// writeReadSrc is a W->R race: main reads the flag before the async's
// write is joined. Sequentially (depth-first) the async runs first and
// the read sees 1; deferring the write lets the read see 0.
const writeReadSrc = `
var flag = 0;
func main() {
    async { flag = 1; }
    println(flag);
}
`

func TestDepthFirstMatchesOracle(t *testing.T) {
	srcs := map[string]string{
		"counter":          counterSrc,
		"repaired-counter": repairedCounterSrc,
		"write-read":       writeReadSrc,
	}
	for _, b := range bench.All() {
		// Small inputs: controlled runs serialize every access.
		srcs["bench/"+b.Name] = b.Src(minInt(b.RepairSize, 12))
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			info := check(t, src)
			oracle, err := Oracle(info, nil)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			out, err := Run(info, Schedule{Policy: DepthFirst}, RunOptions{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if div, reason := Diverges(oracle, out); div {
				t.Fatalf("depth-first controlled run diverges from oracle: %s\noracle output %q state %q\nrun output %q state %q err %v",
					reason, oracle.Output, oracle.State, out.Output, out.State, out.Err)
			}
		})
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRandomScheduleDeterminism(t *testing.T) {
	info := check(t, counterSrc)
	for seed := int64(0); seed < 4; seed++ {
		a, err := Run(info, Schedule{Policy: RandomPriority, Seed: seed}, RunOptions{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		b, err := Run(info, Schedule{Policy: RandomPriority, Seed: seed}, RunOptions{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if a.Output != b.Output || a.State != b.State || a.Trace != b.Trace || a.Yields != b.Yields {
			t.Fatalf("seed %d not deterministic: (%q,%q,%x,%d) vs (%q,%q,%x,%d)",
				seed, a.Output, a.State, a.Trace, a.Yields, b.Output, b.State, b.Trace, b.Yields)
		}
	}
}

func TestCounterLostUpdateWitness(t *testing.T) {
	info := check(t, counterSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if oracle.Output != "2\n" {
		t.Fatalf("oracle output = %q, want 2", oracle.Output)
	}
	// count is global slot 0 => loc 1.
	ws, _, err := FindWitness(info, oracle, [][]uint64{{1}}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	w := ws[0]
	if w == nil {
		t.Fatal("no witness found for the counter lost update")
	}
	if w.Schedule.Policy != DeferWrite {
		t.Errorf("witness schedule = %v, want the defer-write directed schedule", w.Schedule)
	}
	if w.Actual != "1\n" {
		t.Errorf("witness output = %q, want the lost update 1", w.Actual)
	}
	// Witness replays: the same schedule reproduces the same divergence.
	again, err := Run(info, w.Schedule, RunOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.Output != w.Actual || again.Trace != w.Trace {
		t.Errorf("replay differs: output %q trace %x, witness %q %x", again.Output, again.Trace, w.Actual, w.Trace)
	}
}

func TestWriteReadWitness(t *testing.T) {
	info := check(t, writeReadSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	ws, _, err := FindWitness(info, oracle, [][]uint64{{1}}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	w := ws[0]
	if w == nil {
		t.Fatal("no witness found for the W->R race")
	}
	if w.Actual == oracle.Output {
		t.Errorf("witness output %q equals oracle output", w.Actual)
	}
}

func TestVerifyRaceFree(t *testing.T) {
	info := check(t, repairedCounterSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	scheds := VerifySchedules([]uint64{1}, 16, 1)
	if len(scheds) != 16 {
		t.Fatalf("VerifySchedules built %d schedules, want 16", len(scheds))
	}
	rep, err := Verify(info, oracle, scheds, SearchOptions{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("race-free program failed %d/%d schedules; first: %+v", rep.Failures, len(rep.Schedules), rep.First)
	}
}

func TestVerifyCatchesRacyProgram(t *testing.T) {
	info := check(t, counterSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rep, err := Verify(info, oracle, VerifySchedules([]uint64{1}, 16, 1), SearchOptions{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Failures == 0 {
		t.Fatal("adversarial verify passed a racy program")
	}
	if rep.First == nil {
		t.Fatal("no first divergence recorded")
	}
}

// gapProgram checks the repaired form of examples/hj/unexercised.hj and
// returns it with the positions of its two writer statements: the first
// writer is fenced, the second is gated on a threshold this input never
// reaches.
func gapProgram(t *testing.T) (*sem.Info, token.Pos, token.Pos) {
	t.Helper()
	src := `
var x = 0;
var limit = 3;
func main() {
    finish { async { x = x + 1; } }
    if (limit > 10) {
        async { x = x + 2; }
    }
    println(x);
}
`
	info := check(t, src)
	var aPos, bPos token.Pos
	ast.Inspect(info.Prog, func(s ast.Stmt) {
		if as, ok := s.(*ast.AssignStmt); ok {
			if as.Pos().Line == 5 {
				aPos = as.Pos()
			}
			if as.Pos().Line == 7 {
				bPos = as.Pos()
			}
		}
	})
	if aPos == (token.Pos{}) || bPos == (token.Pos{}) {
		t.Fatalf("did not locate writer statements (a=%v b=%v)", aPos, bPos)
	}
	return info, aPos, bPos
}

func TestSearchGapUnreachable(t *testing.T) {
	info, aPos, bPos := gapProgram(t)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	results, _, err := SearchGap(info, oracle, []GapTarget{{APos: aPos, BPos: bPos}}, SearchOptions{Seed: 1, RandomSchedules: 4})
	if err != nil {
		t.Fatalf("SearchGap: %v", err)
	}
	res := results[0]
	if res.Status != GapUnreachable {
		t.Fatalf("gap status = %q (reachedA=%v reachedB=%v), want unreachable", res.Status, res.ReachedA, res.ReachedB)
	}
	if !res.ReachedA || res.ReachedB {
		t.Errorf("reachability: a=%v b=%v, want a reached and b not", res.ReachedA, res.ReachedB)
	}
}

// TestSearchGapRunsEachScheduleOnce: gaps searched together share their
// schedule runs, yet each gets the verdict a search of it alone gives.
func TestSearchGapRunsEachScheduleOnce(t *testing.T) {
	info, aPos, bPos := gapProgram(t)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	opts := SearchOptions{Seed: 1, RandomSchedules: 4}
	targets := []GapTarget{{APos: aPos, BPos: bPos}, {APos: bPos, BPos: aPos}, {APos: aPos, BPos: aPos}}
	results, runs, err := SearchGap(info, oracle, targets, opts)
	if err != nil {
		t.Fatalf("SearchGap: %v", err)
	}
	// Two distinct defer-pos schedules and the four randoms, each once.
	if runs != 2+4 {
		t.Errorf("%d schedule runs, want 6", runs)
	}
	for i, target := range targets {
		alone, n, err := SearchGap(info, oracle, []GapTarget{target}, opts)
		if err != nil {
			t.Fatalf("SearchGap %d alone: %v", i, err)
		}
		if n > 2+4 {
			t.Errorf("gap %d alone: %d runs, want at most 6", i, n)
		}
		got, want := results[i], alone[0]
		if got.Status != want.Status || got.ReachedA != want.ReachedA || got.ReachedB != want.ReachedB {
			t.Errorf("gap %d: searched together %+v, alone %+v", i, got, want)
		}
	}
	if results[2].Status != GapNoDivergence {
		t.Errorf("gap on the fenced writer alone: %q, want no-divergence", results[2].Status)
	}
}

// TestFindWitnessRunsEachScheduleOnce: the classes of one search share
// their schedule runs. Two classes on the counter's location reuse the
// one defer-write run that witnesses both; on the race-free counter, two
// classes that both fall back to the random schedules run them once.
func TestFindWitnessRunsEachScheduleOnce(t *testing.T) {
	info := check(t, counterSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	ws, runs, err := FindWitness(info, oracle, [][]uint64{{1}, {1}}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	if ws[0] == nil || ws[1] != ws[0] || runs != 1 {
		t.Errorf("witnesses %v after %d run(s), want one shared witness after 1", ws, runs)
	}

	info = check(t, repairedCounterSrc)
	if oracle, err = Oracle(info, nil); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	ws, runs, err = FindWitness(info, oracle, [][]uint64{{1}, {2}}, SearchOptions{Seed: 1, RandomSchedules: 4})
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	if ws[0] != nil || ws[1] != nil {
		t.Errorf("witnesses %v on a race-free program", ws)
	}
	// Each class's two race-directed schedules, then the four randoms once.
	if runs != 2+2+4 {
		t.Errorf("%d schedule runs, want 8", runs)
	}
}

func TestYieldLimitTripsSchedule(t *testing.T) {
	src := `
var x = 0;
func main() {
    var i = 0;
    while (i < 100000) {
        x = x + 1;
        i = i + 1;
    }
}
`
	info := check(t, src)
	out, err := Run(info, Schedule{Policy: DepthFirst}, RunOptions{MaxYields: 100})
	if err != nil {
		t.Fatalf("yield-limit trip must be a schedule outcome, got search error %v", err)
	}
	var yl *YieldLimitError
	if out.Err == nil || !errors.As(out.Err, &yl) {
		t.Fatalf("outcome err = %v, want YieldLimitError", out.Err)
	}
}

func TestBudgetAbortsSearch(t *testing.T) {
	info := check(t, counterSrc)
	m := guard.NewMeter(context.Background(), guard.Budget{OpLimit: 5})
	_, err := Run(info, Schedule{Policy: DepthFirst}, RunOptions{Meter: m})
	if err == nil || !guard.IsBudgetOrCanceled(err) {
		t.Fatalf("err = %v, want a budget trip", err)
	}
}
