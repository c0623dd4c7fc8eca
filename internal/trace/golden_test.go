package trace_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/cpl"
	"finishrepair/internal/dpst"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/repair"
	"finishrepair/internal/trace"
)

// goldenPath pins, for every golden program, the capture (event stream,
// Output, final globals, Work) and the S-DPST under each collapse
// policy. The file was generated from the trees the instrumented
// interpreter built during capture, before replay became the only
// S-DPST builder; it has no update flag, so a mismatch is a real change
// to the capture or to the tree replay builds from it.
const goldenPath = "testdata/sdpst.golden"

// goldenProgram is one input of the golden tests: source text, whether
// to strip its finishes, and whether to run an in-process
// -strategy auto repair first (the repaired AST carries the nonzero
// lock classes that printing would drop).
type goldenProgram struct {
	name          string
	src           string
	strip, repair bool
}

func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var progs []goldenProgram
	for _, f := range fixtures {
		progs = append(progs, goldenProgram{name: "fixture/" + f.name, src: f.src})
	}
	commute := progen.Default()
	commute.Commute = true
	for seed := int64(7000); seed < 7020; seed++ {
		progs = append(progs,
			goldenProgram{name: fmt.Sprintf("progen/%d", seed), src: progen.Gen(seed, progen.Default())},
			goldenProgram{name: fmt.Sprintf("progen-commute/%d", seed), src: progen.Gen(seed, commute)})
	}
	for _, b := range bench.All() {
		src := b.Src(b.RepairSize)
		name := "bench/" + strings.ToLower(strings.ReplaceAll(b.Name, " ", "_"))
		progs = append(progs,
			goldenProgram{name: name + "/as-written", src: src},
			goldenProgram{name: name + "/stripped", src: src, strip: true})
	}
	var examples []goldenProgram
	for _, dir := range []string{"examples/hj", "testdata/vet", "testdata"} {
		files, err := filepath.Glob("../../" + dir + "/*.hj")
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v (%d files)", dir, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			gp := goldenProgram{name: dir + "/" + strings.TrimSuffix(filepath.Base(f), ".hj"), src: string(src)}
			progs = append(progs, gp)
			if dir == "examples/hj" {
				gp.name += "/auto-repaired"
				gp.repair = true
				examples = append(examples, gp)
			}
		}
	}
	return append(progs, examples...)
}

func (gp goldenProgram) check(t *testing.T) *sem.Info {
	t.Helper()
	prog := parser.MustParse(gp.src)
	if gp.strip {
		ast.StripFinishes(prog)
	}
	info := sem.MustCheck(prog)
	if gp.repair {
		if _, err := repair.Repair(prog, repair.Options{Strategy: repair.StrategyAuto}); err != nil {
			t.Fatalf("%s: repair: %v", gp.name, err)
		}
		info = sem.MustCheck(prog)
	}
	return info
}

// describeTo renders every structural fact of the tree replay must
// reproduce: IDs, kinds, classes, labels, owner blocks, statement
// coordinates, and the per-node work fields the critical-path analysis
// reads.
func describeTo(w io.Writer, t *dpst.Tree) {
	var visit func(n *dpst.Node, depth int)
	visit = func(n *dpst.Node, depth int) {
		owner := -1
		if n.OwnerBlock != nil {
			owner = n.OwnerBlock.ID
		}
		fmt.Fprintf(w, "%*s%d %s %d %q b%d [%d,%d] w%d s%d i%d c%d\n",
			depth*2, "", n.ID, n.Kind, n.Class, n.Label, owner, n.StmtLo, n.StmtHi,
			n.Work, n.SubtreeWork, n.IsoWork, n.IsoClass)
		for _, c := range n.Children {
			visit(c, depth+1)
		}
	}
	visit(t.Root, 0)
}

// traceHash digests every event field, the label table and TailWork.
func traceHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var buf [29]byte
	tr.Events(func(_ int, e *trace.Event) bool {
		binary.LittleEndian.PutUint64(buf[0:], e.Loc)
		binary.LittleEndian.PutUint32(buf[8:], uint32(e.Block))
		binary.LittleEndian.PutUint32(buf[12:], uint32(e.Body))
		binary.LittleEndian.PutUint32(buf[16:], uint32(e.Stmt))
		binary.LittleEndian.PutUint32(buf[20:], e.W)
		buf[24], buf[25], buf[26] = e.Kind, e.NKind, e.Class
		binary.LittleEndian.PutUint16(buf[27:], e.Label)
		h.Write(buf[:])
		return true
	})
	for i := uint16(0); tr.Label(i) != ""; i++ {
		fmt.Fprintf(h, "%q\n", tr.Label(i))
	}
	fmt.Fprintf(h, "tail %d", tr.TailWork)
	return h.Sum64()
}

func strHash(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// goldenLines renders one capture line per golden program and, with
// trees set, one line per collapse policy for the tree built from that
// capture.
func goldenLines(t *testing.T, trees bool) []string {
	t.Helper()
	var lines []string
	for _, gp := range goldenPrograms(t) {
		info := gp.check(t)
		res, tr, err := captureRun(info)
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s capture err=%q", gp.name, err))
			continue
		}
		lines = append(lines, fmt.Sprintf("%s capture events=%d trace=%016x out=%016x state=%016x work=%d",
			gp.name, tr.Len(), traceHash(tr), strHash(res.Output),
			strHash(interp.RenderState(info, res.Globals)), res.Work))
		if !trees {
			continue
		}
		for _, noCollapse := range []bool{false, true} {
			policy := "collapse"
			if noCollapse {
				policy = "nocollapse"
			}
			tree, steps, err := goldenTree(info, tr, noCollapse)
			if err != nil {
				t.Fatalf("%s %s: %v", gp.name, policy, err)
			}
			m := cpl.Analyze(tree)
			h := fnv.New64a()
			describeTo(h, tree)
			lines = append(lines, fmt.Sprintf("%s %s nodes=%d steps=%d work=%d span=%d tree=%016x",
				gp.name, policy, tree.NumNodes(), steps, m.Work, m.Span, h.Sum64()))
		}
	}
	return lines
}

// checkGolden compares the golden file's lines selected by keep against
// got, keyed by their first two fields (program and line kind).
func checkGolden(t *testing.T, got []string, keep func(kind string) bool) {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	key := func(line string) (string, string) {
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		return f[0] + " " + f[1], f[1]
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if k, kind := key(line); keep(kind) {
			want[k] = line
		}
	}
	bad, seen := 0, 0
	for _, line := range got {
		k, kind := key(line)
		if !keep(kind) {
			continue
		}
		seen++
		if w, ok := want[k]; !ok || w != line {
			if bad++; bad <= 10 {
				t.Errorf("golden mismatch:\n got  %s\n want %s", line, w)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d mismatches in all", bad)
	}
	if seen != len(want) {
		t.Errorf("%d lines computed, golden file has %d", seen, len(want))
	}
}

// TestReplayReconstructsTree replays the capture of every golden
// program under both collapse policies and checks the tree against the
// golden file: node count, steps, Work and Span, and a digest of every
// node's IDs, kinds, coordinates and work fields.
func TestReplayReconstructsTree(t *testing.T) {
	checkGolden(t, goldenLines(t, true), func(kind string) bool { return kind != "capture" })
}

// TestCaptureGolden checks every golden program's capture against the
// golden file: a digest and the length of the event stream (every
// event field, the label table and TailWork), and digests of Output
// and the final globals, and Work. It pins the instrumentation hooks
// independently of replay.
func TestCaptureGolden(t *testing.T) {
	checkGolden(t, goldenLines(t, false), func(kind string) bool { return kind == "capture" })
}

// captureRun makes the recorded depth-first run of info.
func captureRun(info *sem.Info) (*interp.Result, *trace.Trace, error) {
	rec := trace.NewRecorder()
	res, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Trace: rec})
	if err != nil {
		return nil, nil, err
	}
	return res, rec.Trace(), nil
}

// goldenTree builds the S-DPST of a capture under a collapse policy.
func goldenTree(info *sem.Info, tr *trace.Trace, noCollapse bool) (*dpst.Tree, int, error) {
	rr, err := trace.Replay(tr, trace.ReplayOptions{Prog: info.Prog, NoCollapse: noCollapse})
	if err != nil {
		return nil, 0, err
	}
	return rr.Tree, rr.Steps, nil
}
