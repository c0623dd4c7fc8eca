package adversary

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/internal/race"
)

// goldenPath pins the observable outcome of every controlled schedule
// the golden test runs: any change to a yield point, a location number,
// the budget's tick sites or a scheduling decision shows up as a line
// that differs.
const goldenPath = "testdata/schedule_outcomes.golden"

// goldenVetPrograms are the testdata/vet programs that use isolated, so
// the golden runs cover yield suppression inside isolated bodies.
var goldenVetPrograms = []string{"reducible_race", "redundant_isolated"}

// goldenProgram is one input of the golden test. stripRun runs the
// finish-stripped program; stripRacey takes the directed schedules from
// the MRW races of the finish-stripped program. Both versions parse the
// same source text, so their statement positions agree.
type goldenProgram struct {
	name                 string
	src                  string
	stripRun, stripRacey bool
}

func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var progs []goldenProgram
	for _, b := range bench.All() {
		src := b.Src(b.RepairSize)
		name := strings.ToLower(strings.ReplaceAll(b.Name, " ", "_"))
		progs = append(progs,
			goldenProgram{name: name + "/as-written", src: src, stripRacey: true},
			goldenProgram{name: name + "/stripped", src: src, stripRun: true, stripRacey: true})
	}
	files, err := filepath.Glob("../../examples/hj/*.hj")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/hj: %v (%d files)", err, len(files))
	}
	for _, v := range goldenVetPrograms {
		files = append(files, "../../testdata/vet/"+v+".hj")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, goldenProgram{name: strings.TrimSuffix(filepath.Base(f), ".hj"), src: string(src)})
	}
	return progs
}

func parseGolden(src string, strip bool) *ast.Program {
	prog := parser.MustParse(src)
	if strip {
		ast.StripFinishes(prog)
	}
	return prog
}

// goldenSchedules builds a program's schedules from the MRW races of
// its racy version: the race-directed pair on every racing location in
// ascending order, capped at 16 like VerifySchedules; 4 random-priority
// seeds; and DeferPos on the first two distinct racing statements.
func goldenSchedules(t *testing.T, prog *ast.Program) []Schedule {
	t.Helper()
	info := sem.MustCheck(prog)
	_, _, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	blocks := map[int32]*ast.Block{}
	var walk func(b *ast.Block)
	walk = func(b *ast.Block) {
		blocks[int32(b.ID)] = b
		for _, s := range b.Stmts {
			for _, nb := range ast.StmtBlocks(s) {
				walk(nb)
			}
		}
	}
	for _, fn := range prog.Funcs {
		walk(fn.Body)
	}
	sitePos := func(block, stmt int32) (token.Pos, bool) {
		b := blocks[block]
		if b == nil || stmt < 0 || int(stmt) >= len(b.Stmts) {
			return token.Pos{}, false
		}
		return b.Stmts[stmt].Pos(), true
	}
	seenLoc := map[uint64]bool{}
	var locs []uint64
	var positions []token.Pos
	seenPos := map[token.Pos]bool{}
	for _, r := range det.Races() {
		if !seenLoc[r.Loc] {
			seenLoc[r.Loc] = true
			locs = append(locs, r.Loc)
		}
		for _, s := range []struct{ b, i int32 }{{r.SrcSite.Block, r.SrcSite.Stmt}, {r.DstSite.Block, r.DstSite.Stmt}} {
			if p, ok := sitePos(s.b, s.i); ok && !seenPos[p] && len(positions) < 2 {
				seenPos[p] = true
				positions = append(positions, p)
			}
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	var scheds []Schedule
	for _, loc := range locs {
		scheds = append(scheds, RaceDirected(loc)...)
	}
	if len(scheds) > 16 {
		scheds = scheds[:16]
	}
	for seed := int64(1); seed <= 4; seed++ {
		scheds = append(scheds, Schedule{Policy: RandomPriority, Seed: seed})
	}
	for _, p := range positions {
		scheds = append(scheds, Schedule{Policy: DeferPos, Pos: p})
	}
	return scheds
}

// scheduleOutcomeLines runs every golden program under its schedules
// and renders one line per run.
func scheduleOutcomeLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	type racyKey struct {
		src   string
		strip bool
	}
	schedCache := map[racyKey][]Schedule{}
	for _, gp := range goldenPrograms(t) {
		k := racyKey{gp.src, gp.stripRacey}
		scheds, ok := schedCache[k]
		if !ok {
			scheds = goldenSchedules(t, parseGolden(gp.src, gp.stripRacey))
			schedCache[k] = scheds
		}
		info := sem.MustCheck(parseGolden(gp.src, gp.stripRun))
		for _, s := range scheds {
			out, err := Run(info, s, RunOptions{})
			if err != nil {
				t.Fatalf("%s under %s: %v", gp.name, s, err)
			}
			h := fnv.New64a()
			h.Write([]byte(out.Output))
			h.Write([]byte{0})
			h.Write([]byte(out.State))
			errText := ""
			if out.Err != nil {
				errText = out.Err.Error()
			}
			lines = append(lines, fmt.Sprintf("%s %s out=%016x yields=%d grants=%d trace=%016x err=%q",
				gp.name, s, h.Sum64(), out.Yields, out.Grants, out.Trace, errText))
		}
	}
	return lines
}

// TestScheduleOutcomesGolden replays the Table-1 programs (as written
// and finish-stripped), the bundled examples and the isolated vet
// programs under race-directed, random-priority and position-directed
// schedules, and checks every outcome against the golden file: the
// hash of Output and State, the error text, and the yield count, grant
// count and grant-trace digest. The file was generated by the
// tree-walking executor this package's controlled runs used before the
// compiled one, so it is the equivalence oracle for the compiler and
// the controller's self-grant fast path.
func TestScheduleOutcomesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	got := scheduleOutcomeLines(t)
	if len(got) != len(wantLines) {
		t.Errorf("%d outcomes, golden file has %d", len(got), len(wantLines))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			bad++
			if bad <= 10 {
				t.Errorf("outcome %d:\n got  %s\n want %s", i, got[i], wantLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d differing outcomes in all", bad)
	}
}
