package main

import (
	"embed"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/tdr"
)

// expected holds the serial output of every Table-1 program at its
// repair size, stored with the benchmark so a repair is judged against
// a fixed reference rather than one the interpreter under test
// recomputes.
//
//go:embed expected/*.out
var expected embed.FS

// program is one corpus entry: the finish-stripped source the repair
// receives and what its repair must reproduce.
type program struct {
	// name is the row name: the slugged Table-1 name ("lufact"), the
	// example's file stem ("counter"), or "progen-<seed>".
	name string
	src  string
	// want is the reference output the repaired program must print.
	want string
	// expertSpan is the critical path of the expert-written program
	// (fixed rosters only, 0 otherwise): the repaired span may not
	// exceed it (paper §7.1). expertRatio is its work/span.
	expertSpan  int64
	expertRatio float64
}

// workload is one benchmark configuration: a corpus and the options a
// user would pass to hjrepair.
type workload struct {
	name string
	opts tdr.RepairOptions
	// fixed marks the Table-1 rosters, which report one row per program
	// and check repaired spans against the expert programs.
	fixed bool
	// fusedProbe makes the traced run also time the fused dual-oracle
	// engine on each buggy program, sharded and streamed as
	// hjrepair -detector both -j 2 runs it (layers.go).
	fusedProbe bool
	// corpus builds the programs from the run's seed.
	corpus func(seed int64) ([]*program, error)
}

// adversarySeed is the fixed -sched-seed of adversary-k16.
const adversarySeed = 1

// progenCount is how many generated programs progen-commute adds to the
// bundled examples. Its p90 needs only 100, but sums over the corpus
// vary with the seed's draw: at 1000 the quartiles of suite_s over
// seeds lie within 5% of the median.
const progenCount = 1000

// progenMaxEvents bounds a generated program's canonical execution, in
// trace events; larger draws are skipped. About 1% of default draws
// exceed it, and without the cap one draw in a few thousand repairs
// for 40-500 ms, which alone would swing the corpus sum between seeds.
// The workload is about small programs, whose repairs take well under
// a millisecond.
const progenMaxEvents = 2000

// examples are the bundled HJ-lite programs progen-commute repairs,
// read from examples/hj in the checkout.
var examples = []string{"counter", "minmax", "product", "reduce", "splitrmw", "sumsq", "unexercised"}

var workloads = []*workload{
	{
		name:       "paper-suite",
		opts:       tdr.RepairOptions{Strategy: tdr.Auto, Workers: 1},
		fixed:      true,
		fusedProbe: true,
		corpus:     func(int64) ([]*program, error) { return paperCorpus() },
	},
	{
		name:   "progen-commute",
		opts:   tdr.RepairOptions{Strategy: tdr.Auto, Workers: 1},
		corpus: progenCorpus,
	},
	{
		name:   "adversary-k16",
		opts:   tdr.RepairOptions{Strategy: tdr.Auto, Workers: 1, AdversarySchedules: 16, SchedSeed: adversarySeed},
		fixed:  true,
		corpus: func(int64) ([]*program, error) { return paperCorpus("lufact", "mergesort") },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// slug turns a Table-1 name into a row name: "Spanning Tree" ->
// "spanning_tree".
func slug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "_"))
}

// paperCorpus renders the Table-1 programs at repair size, measures the
// expert programs' spans, and strips every finish (§7.1), leaving out
// the named programs.
func paperCorpus(skip ...string) ([]*program, error) {
	var progs []*program
	for _, b := range bench.All() {
		name := slug(b.Name)
		if slices.Contains(skip, name) {
			continue
		}
		want, err := expected.ReadFile("expected/" + name + ".out")
		if err != nil {
			return nil, err
		}
		p, err := tdr.Load(b.Src(b.RepairSize))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pl, err := p.CriticalPath()
		if err != nil {
			return nil, fmt.Errorf("%s expert span: %w", name, err)
		}
		p.StripFinishes()
		progs = append(progs, &program{name: name, src: p.Source(), want: string(want), expertSpan: pl.Span, expertRatio: pl.Ratio()})
	}
	return progs, nil
}

// progenCorpus is the bundled examples plus progenCount generated
// programs with commutative reductions, drawn from the seed. References
// are each program's serial elision.
func progenCorpus(seed int64) ([]*program, error) {
	var progs []*program
	for _, name := range examples {
		b, err := os.ReadFile(filepath.Join("examples", "hj", name+".hj"))
		if err != nil {
			return nil, fmt.Errorf("progen-commute reads the bundled examples from the repository root: %w", err)
		}
		progs = append(progs, &program{name: name, src: string(b)})
	}
	cfg := progen.Default()
	cfg.Commute = true
	rng := rand.New(rand.NewSource(seed))
	for len(progs) < len(examples)+progenCount {
		s := rng.Int63n(1 << 40)
		src := progen.Gen(s, cfg)
		n, err := events(src)
		if err != nil {
			return nil, fmt.Errorf("progen-%d: %w", s, err)
		}
		if n <= progenMaxEvents {
			progs = append(progs, &program{name: fmt.Sprintf("progen-%d", s), src: src})
		}
	}
	for _, prog := range progs {
		p, err := tdr.Load(prog.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prog.name, err)
		}
		if prog.want, err = p.RunSequential(); err != nil {
			return nil, fmt.Errorf("%s serial elision: %w", prog.name, err)
		}
	}
	return progs, nil
}

// events counts the trace events of src's canonical execution.
func events(src string) (int, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return 0, err
	}
	info, err := sem.Check(prog)
	if err != nil {
		return 0, err
	}
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		return 0, err
	}
	return tr.Len(), nil
}
