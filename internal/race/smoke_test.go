package race_test

import (
	"testing"

	"finishrepair/internal/interp"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

// fibSrc is the incorrectly synchronized Fibonacci program from paper
// Figure 8 (BoxInteger fields become 1-element arrays).
const fibSrc = `
func fib(ret []int, n int) {
    if (n < 2) {
        ret[0] = n;
        return;
    }
    var x = make([]int, 1);
    var y = make([]int, 1);
    async fib(x, n - 1);
    async fib(y, n - 2);
    ret[0] = x[0] + y[0];
}

func main() {
    var result = make([]int, 1);
    async fib(result, 3);
    println(result[0]);
}
`

func TestFibHasRaces(t *testing.T) {
	prog, err := parser.Parse(fibSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	for _, v := range []race.Variant{race.VariantSRW, race.VariantMRW} {
		for _, mk := range []func() race.Oracle{
			func() race.Oracle { return race.NewBagsOracle() },
			func() race.Oracle { return race.NewDPSTOracle() },
		} {
			res, tree, det, err := race.Detect(info, v, mk())
			if err != nil {
				t.Fatalf("%v run: %v", v, err)
			}
			if len(det.Races()) == 0 {
				t.Errorf("%v: expected races in unsynchronized fib, got none\n%s", v, tree.Dump())
			}
			if err := tree.Validate(); err != nil {
				t.Errorf("%v: invalid S-DPST: %v", v, err)
			}
			t.Logf("%v: %d races, %d nodes, output %q", v, len(det.Races()), tree.NumNodes(), res.Output)
		}
	}
}

func TestFibSerialElision(t *testing.T) {
	prog := parser.MustParse(fibSrc)
	info := sem.MustCheck(prog)
	res, err := interp.Run(info, interp.Options{Mode: interp.Elide})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output != "2\n" {
		t.Errorf("fib(3) = %q, want 2", res.Output)
	}
}
