package race_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

func raceSet(t *testing.T, src string, v race.Variant, o race.Oracle) map[string]bool {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return progRaceSet(t, prog, v, o)
}

func progRaceSet(t *testing.T, prog *ast.Program, v race.Variant, o race.Oracle) map[string]bool {
	t.Helper()
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v\n%s", err, printer.Print(prog))
	}
	_, _, det, err := race.Detect(info, v, o)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, printer.Print(prog))
	}
	set := make(map[string]bool)
	for _, r := range det.Races() {
		set[fmt.Sprintf("%d>%d@%d/%v", r.Src.ID, r.Dst.ID, r.Loc, r.Kind)] = true
	}
	return set
}

// Property: the ESP-Bags oracle and the S-DPST Theorem-1 oracle decide
// the same ordering relation, so both MRW detectors report identical
// race sets on arbitrary structured programs.
func TestOraclesAgreeOnRandomPrograms(t *testing.T) {
	cfg := progen.Default()
	for seed := int64(0); seed < 120; seed++ {
		src := progen.Gen(seed, cfg)
		bags := raceSet(t, src, race.VariantMRW, race.NewBagsOracle())
		dpstSet := raceSet(t, src, race.VariantMRW, race.NewDPSTOracle())
		if len(bags) != len(dpstSet) {
			t.Fatalf("seed %d: bags found %d races, dpst %d\n%s", seed, len(bags), len(dpstSet), src)
		}
		for k := range bags {
			if !dpstSet[k] {
				t.Fatalf("seed %d: race %s found by bags but not dpst\n%s", seed, k, src)
			}
		}
	}
}

// Property: every race SRW reports is also reported by MRW (SRW keeps a
// subset of the access history), and SRW is empty iff MRW is: the
// detectors agree on race freedom (the ESP-Bags soundness/completeness
// guarantee). Besides generated programs, the inputs include isolated
// accesses next to plain ones: the two literal programs, and generated
// commutative reductions repaired with -strategy auto and stripped of
// finishes again, which leaves their isolated wrappers (under their
// inferred lock classes) racing with the rest.
func TestSRWSubsetOfMRW(t *testing.T) {
	type input struct {
		name string
		prog *ast.Program
	}
	inputs := []input{
		{"iso-after-plain", parser.MustParse(`var x = 0; func main() { async { x = x + 1; isolated { x = x + 2; } } isolated { x = x + 3; } println(x); }`)},
		{"iso-write-pair", parser.MustParse(`var x = 0; func main() { async { isolated { x = 1; } } isolated { x = 2; } println(x); }`)},
	}
	for seed := int64(100); seed < 200; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("progen-%d", seed), parser.MustParse(progen.Gen(seed, progen.Default()))})
	}
	commute := progen.Default()
	commute.Commute = true
	for seed := int64(1); seed <= 300; seed++ {
		prog := parser.MustParse(progen.Gen(seed, commute))
		if _, err := repair.Repair(prog, repair.Options{Variant: race.VariantMRW, Strategy: repair.StrategyAuto}); err != nil {
			t.Fatalf("progen-commute-%d: repair: %v", seed, err)
		}
		ast.StripFinishes(prog)
		inputs = append(inputs, input{fmt.Sprintf("progen-commute-%d", seed), prog})
	}
	for _, in := range inputs {
		srw := progRaceSet(t, in.prog, race.VariantSRW, race.NewBagsOracle())
		mrw := progRaceSet(t, in.prog, race.VariantMRW, race.NewBagsOracle())
		for k := range srw {
			if !mrw[k] {
				t.Errorf("%s: SRW race %s missing from MRW\n%s", in.name, k, printer.Print(in.prog))
			}
		}
		if (len(srw) == 0) != (len(mrw) == 0) {
			t.Errorf("%s: SRW=%d MRW=%d disagree on race freedom\n%s", in.name, len(srw), len(mrw), printer.Print(in.prog))
		}
	}
}

// Property: programs whose asyncs are all directly wrapped in finishes
// are race-free (each task joins before the next statement runs).
func TestFullySynchronizedIsRaceFree(t *testing.T) {
	src := `
var g = make([]int, 4);
func main() {
    finish { async { g[0] = 1; } }
    finish { async { g[0] = g[0] + 1; } }
    finish {
        async { g[1] = 5; }
        async { g[2] = 6; }
    }
    println(g[0], g[1], g[2]);
}
`
	for _, mk := range []race.Oracle{race.NewBagsOracle(), race.NewDPSTOracle()} {
		if n := len(raceSet(t, src, race.VariantMRW, mk)); n != 0 {
			t.Errorf("expected race freedom, got %d races", n)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	src := progen.Gen(7, progen.Default())
	prog := parser.MustParse(src)
	info := sem.MustCheck(prog)
	_, tree, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	races := det.Races()
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, races); err != nil {
		t.Fatal(err)
	}
	// A bytes.Buffer is encoded in place; any other writer gets the same
	// bytes from one buffer of the trace's exact size.
	var plain bytes.Buffer
	if err := race.WriteTrace(struct{ io.Writer }{&plain}, races); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), buf.Bytes()) || buf.Len() != 12+38*len(races) {
		t.Fatalf("trace of %d races: %d bytes in place, %d via a plain writer", len(races), buf.Len(), plain.Len())
	}
	got, err := race.ReadTrace(&buf, tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(races) {
		t.Fatalf("round trip: %d races, want %d", len(got), len(races))
	}
	for i := range races {
		if got[i].Src != races[i].Src || got[i].Dst != races[i].Dst ||
			got[i].Loc != races[i].Loc || got[i].Kind != races[i].Kind ||
			got[i].SrcSite != races[i].SrcSite || got[i].DstSite != races[i].DstSite {
			t.Fatalf("race %d mismatch: %v vs %v", i, got[i], races[i])
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	tree := dpst.NewTree()
	if _, err := race.ReadTrace(bytes.NewReader([]byte("nonsense....")), tree); err == nil {
		t.Error("expected error for bad magic")
	}
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	hdr := func(n uint32) []byte {
		h := bytes.Clone(buf.Bytes()[:12])
		binary.LittleEndian.PutUint32(h[8:12], n)
		return h
	}
	other := hdr(0)
	other[4] = 1
	if _, err := race.ReadTrace(bytes.NewReader(other), tree); err == nil {
		t.Error("expected error for unsupported version")
	}
	// Truncate a valid header promising one record.
	if _, err := race.ReadTrace(bytes.NewReader(hdr(1)), tree); err == nil {
		t.Error("expected error for truncated trace")
	}

	// Short bodies name the first record that could not be read in full.
	for _, tc := range []struct {
		in   []byte
		want string
	}{
		{append(hdr(2), make([]byte, 38)...), "race trace: truncated at record 1: EOF"},
		{append(hdr(2), make([]byte, 38+19)...), "race trace: truncated at record 1: unexpected EOF"},
		{append(hdr(3), make([]byte, 10)...), "race trace: truncated at record 0: unexpected EOF"},
	} {
		if _, err := race.ReadTrace(bytes.NewReader(tc.in), tree); err == nil || err.Error() != tc.want {
			t.Errorf("%d-byte trace: got error %v, want %q", len(tc.in), err, tc.want)
		}
	}

	// A header promising 0xFFFFFFFF records over an empty body must fail
	// on the short body without sizing anything from the count.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := race.ReadTrace(bytes.NewReader(hdr(0xFFFFFFFF)), tree)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated at record 0") {
		t.Errorf("huge record count: got error %v, want truncated at record 0", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Errorf("huge record count: allocated %d bytes before failing", alloc)
	}
}

// The Figure 7 example: three asyncs reading/writing x; MRW reports both
// R->W races, SRW only one (paper §4.1).
func TestFig7MultipleReaders(t *testing.T) {
	src := `
var x = 0;
var sink = 0;
func main() {
    async { sink = x; }     // A1
    async { sink = x + 0; } // A2  (distinct sink write location is fine)
    async { x = 3; }        // A3
    println(x);
}
`
	// Count only races on x's location involving the A3 write.
	prog := parser.MustParse(src)
	info := sem.MustCheck(prog)
	_, _, mrwDet, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	prog2 := parser.MustParse(src)
	info2 := sem.MustCheck(prog2)
	_, _, srwDet, err := race.Detect(info2, race.VariantSRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	countRW := func(rs []*race.Race) int {
		n := 0
		for _, r := range rs {
			if r.Kind == race.ReadWrite {
				n++
			}
		}
		return n
	}
	if got := countRW(mrwDet.Races()); got < 2 {
		t.Errorf("MRW reported %d R->W races, want >= 2 (both readers)", got)
	}
	if got := countRW(srwDet.Races()); got != 1 {
		t.Errorf("SRW reported %d R->W races, want exactly 1 (single reader slot)", got)
	}
}
