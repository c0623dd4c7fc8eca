// Package main_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (§7), plus
// micro-benchmarks of the substrate components.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The Table/Figure benchmarks use the repair-mode inputs (Table 1,
// column 4); full-size Figure 16 numbers come from `hjbench -fig 16`.
package main_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"finishrepair/internal/bench"
	"finishrepair/internal/homework"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/lexer"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/parinterp"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/taskpar"
)

// BenchmarkTable2_Detection measures race detection plus S-DPST
// construction per benchmark (Table 2, "Data Race Detection Time").
func BenchmarkTable2_Detection(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2_Repair measures the full repair loop per benchmark
// (Table 2, "Repair Time" plus detection rounds).
func BenchmarkTable2_Repair(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			src := bm.Src(bm.RepairSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := parser.MustParse(src)
				ast.StripFinishes(prog)
				b.StartTimer()
				if _, err := repair.Repair(prog, repair.Options{UseTraceFiles: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3_SRWDetection is the SRW column of Table 3.
func BenchmarkTable3_SRWDetection(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := race.Detect(info, race.VariantSRW, race.NewBagsOracle()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16 measures the three execution modes of Figure 16 on the
// repair-size inputs (the full performance inputs run via hjbench).
func BenchmarkFig16_Sequential(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := interp.Run(info, interp.Options{Mode: interp.Elide}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16_OriginalParallel runs the expert-written parallel
// version on the work-stealing runtime.
func BenchmarkFig16_OriginalParallel(b *testing.B) {
	exec := taskpar.NewPoolExecutor(0)
	defer exec.Shutdown()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parinterp.Run(info, parinterp.Options{Executor: exec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16_RepairedParallel runs the tool-repaired version on the
// work-stealing runtime.
func BenchmarkFig16_RepairedParallel(b *testing.B) {
	exec := taskpar.NewPoolExecutor(0)
	defer exec.Shutdown()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			src, err := bench.RepairedSource(bm, bm.RepairSize)
			if err != nil {
				b.Fatal(err)
			}
			prog := parser.MustParse(src)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parinterp.Run(info, parinterp.Options{Executor: exec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHomework grades one submission of each class (§7.4).
func BenchmarkHomeworkGrading(b *testing.B) {
	toolSpan, toolSrc, err := homework.ToolRepair()
	if err != nil {
		b.Fatal(err)
	}
	subs := homework.Submissions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := subs[i%len(subs)]
		if _, err := homework.Grade(sub, toolSpan, toolSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectEngines splits detection into its capture-once /
// analyze-many halves and compares the pluggable engines: "capture" is
// the one instrumented execution that records the event-trace IR,
// "espbags" / "vc" are pure trace replays through each detector backend,
// "both" runs the legacy two-engine differential pair serially (the
// independent-engines gold standard), and "both-j2" / "both-j4" run the
// fused dual-oracle engine with the requested analysis parallelism —
// one shadow scan cross-checking both oracles per ordering query,
// sharded by location hash when cores allow (race.AnalyzeParallel).
// Engines are released back to the shadow-memory reuse pool between
// iterations, as the repair loop does. Regenerate BENCH_detect.json
// with `make bench-detect`; gate regressions with `make bench-diff`
// (which also enforces both-jN <= both per benchmark).
func BenchmarkDetectEngines(b *testing.B) {
	release := func(eng race.Engine) {
		if r, ok := eng.(race.Releaser); ok {
			r.Release()
		}
	}
	// reportQuantiles attaches the per-iteration latency quantiles to
	// the result (p50-ns/op etc.); scripts/benchdiff gates on p95 so a
	// tail regression can't hide behind a stable mean.
	reportQuantiles := func(b *testing.B, durs []time.Duration) {
		if len(durs) == 0 {
			return
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		q := func(p float64) float64 {
			return float64(durs[int(p*float64(len(durs)-1)+0.5)])
		}
		b.ReportMetric(q(0.50), "p50-ns/op")
		b.ReportMetric(q(0.95), "p95-ns/op")
		b.ReportMetric(q(0.99), "p99-ns/op")
	}
	for _, bm := range bench.All() {
		bm := bm
		prog := parser.MustParse(bm.Src(bm.RepairSize))
		ast.StripFinishes(prog)
		info := sem.MustCheck(prog)
		_, tr, err := race.Capture(info, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name+"/capture", func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC() // pay the previous stage's GC debt outside the timer
			durs := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, _, err := race.Capture(info, nil); err != nil {
					b.Fatal(err)
				}
				durs = append(durs, time.Since(t0))
			}
			b.ReportMetric(float64(tr.Len()), "events")
			reportQuantiles(b, durs)
		})
		for _, kind := range []race.EngineKind{race.EngineESPBags, race.EngineVC} {
			kind := kind
			b.Run(bm.Name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				// Warm the detector pools so B/op reflects the
				// steady state, not one-time slab growth.
				eng := race.NewEngine(kind, race.VariantMRW)
				if _, err := race.Analyze(tr, info.Prog, nil, eng, nil, false); err != nil {
					b.Fatal(err)
				}
				release(eng)
				runtime.GC()
				durs := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					eng := race.NewEngine(kind, race.VariantMRW)
					if _, err := race.Analyze(tr, info.Prog, nil, eng, nil, false); err != nil {
						b.Fatal(err)
					}
					release(eng)
					durs = append(durs, time.Since(t0))
				}
				reportQuantiles(b, durs)
			})
		}
		for _, workers := range []int{1, 2, 4} {
			workers := workers
			stage := "both"
			if workers > 1 {
				stage = fmt.Sprintf("both-j%d", workers)
			}
			// both = legacy two-engine differential, serial; both-jN =
			// fused dual-oracle engine under AnalyzeParallel.
			mkEng := func() race.Engine {
				if workers > 1 {
					return race.NewFused(race.VariantMRW)
				}
				return race.NewEngine(race.EngineBoth, race.VariantMRW)
			}
			b.Run(bm.Name+"/"+stage, func(b *testing.B) {
				b.ReportAllocs()
				check := func(eng race.Engine) {
					if c, ok := eng.(race.Checker); ok {
						if err := c.Check(); err != nil {
							b.Fatal(err)
						}
					}
				}
				eng := mkEng()
				if _, err := race.AnalyzeParallel(tr, info.Prog, nil, eng, nil, false, workers); err != nil {
					b.Fatal(err)
				}
				check(eng)
				release(eng)
				runtime.GC()
				durs := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					eng := mkEng()
					if _, err := race.AnalyzeParallel(tr, info.Prog, nil, eng, nil, false, workers); err != nil {
						b.Fatal(err)
					}
					check(eng)
					release(eng)
					durs = append(durs, time.Since(t0))
				}
				reportQuantiles(b, durs)
			})
		}
	}
}

// ----------------------------------------------------------------------
// Substrate micro-benchmarks (ablations).

// BenchmarkOracle compares the two ordering oracles that parameterize
// the detectors (ESP-Bags union-find vs Theorem-1 S-DPST queries) on the
// mergesort race workload — the design choice discussed in DESIGN.md.
func BenchmarkOracle(b *testing.B) {
	bm := bench.Get("Mergesort")
	src := bm.Src(300)
	oracles := map[string]func() race.Oracle{
		"ESPBags": func() race.Oracle { return race.NewBagsOracle() },
		"DPST":    func() race.Oracle { return race.NewDPSTOracle() },
	}
	for name, mk := range oracles {
		b.Run(name, func(b *testing.B) {
			prog := parser.MustParse(src)
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := race.Detect(info, race.VariantMRW, mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPSolver measures Algorithm 1 on dependence graphs of
// increasing size (the O(n^3) dynamic program). The n=N rows pass no
// VALID predicate; the scoped/n=N rows pass one with the cost profile of
// the real one (scopedValid), which the repair loop always supplies.
// Both report ns per DP state.
func BenchmarkDPSolver(b *testing.B) {
	for _, scoped := range []bool{false, true} {
		for _, n := range []int{8, 32, 128, 512} {
			p := &repair.Problem{N: n, T: make([]int64, n), Async: make([]bool, n)}
			for i := 0; i < n; i++ {
				p.T[i] = int64(i%13 + 1)
				p.Async[i] = i%2 == 0
			}
			for i := 0; i+3 < n; i += 4 {
				p.Edges = append(p.Edges, [2]int{i, i + 3})
			}
			name := benchName(n)
			if scoped {
				for i := 0; i+5 < n; i += 8 {
					p.Edges = append(p.Edges, [2]int{i, i + 5})
				}
				p.Valid = scopedValid(n)
				name = "scoped/" + name
			}
			b.Run(name, func(b *testing.B) {
				var states int64
				for i := 0; i < b.N; i++ {
					sol, err := repair.Solve(p)
					if err != nil {
						b.Fatal(err)
					}
					states += sol.States
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(states), "ns/state")
			})
		}
	}
}

// scopedValid is a VALID predicate over a synthetic scope tree: the n
// vertices are the leaves of a tree that splits every range into up to
// four near-equal children, and a block s..e is expressible when it is a
// run of whole consecutive children of one node. Like computeWrap, each
// call climbs parent links to the lowest common ancestor.
func scopedValid(n int) func(s, e int) bool {
	var parent, depth, lo, hi []int
	leaf := make([]int, n)
	var build func(a, c, par, d int)
	build = func(a, c, par, d int) {
		id := len(parent)
		parent, depth, lo, hi = append(parent, par), append(depth, d), append(lo, a), append(hi, c)
		if a == c {
			leaf[a] = id
			return
		}
		size := c - a + 1
		parts := min(size, 4)
		for k := 0; k < parts; k++ {
			build(a+k*size/parts, a+(k+1)*size/parts-1, id, d+1)
		}
	}
	build(0, n-1, -1, 0)
	return func(s, e int) bool {
		x, y := leaf[s], leaf[e]
		if x == y {
			return true
		}
		for depth[x] > depth[y] {
			x = parent[x]
		}
		for depth[y] > depth[x] {
			y = parent[y]
		}
		for parent[x] != parent[y] {
			x, y = parent[x], parent[y]
		}
		return lo[x] == s && hi[y] == e
	}
}

// BenchmarkSolveParallel measures the per-NS-LCA DP worker pool: a
// batch of independent placement problems solved sequentially vs on 4
// workers (repair rounds with many race groups take this path).
func BenchmarkSolveParallel(b *testing.B) {
	const n, batch = 128, 16
	mkProbs := func() []*repair.Problem {
		probs := make([]*repair.Problem, batch)
		for k := range probs {
			p := &repair.Problem{N: n, T: make([]int64, n), Async: make([]bool, n)}
			for i := 0; i < n; i++ {
				p.T[i] = int64((i+k)%13 + 1)
				p.Async[i] = i%2 == 0
			}
			for i := 0; i+3 < n; i += 4 {
				p.Edges = append(p.Edges, [2]int{i, i + 3})
			}
			probs[k] = p
		}
		return probs
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			probs := mkProbs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repair.SolveAll(probs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShadowEpoch measures the epoch-frontier MRW shadow memory on
// the Mergesort detection workload: "fresh" allocates a new detector
// per replay, "pooled" releases it back to the reuse pool between
// replays (the repair loop's analyze-many pattern).
func BenchmarkShadowEpoch(b *testing.B) {
	bm := bench.Get("Mergesort")
	prog := parser.MustParse(bm.Src(bm.RepairSize))
	ast.StripFinishes(prog)
	info := sem.MustCheck(prog)
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, pooled bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det := race.NewMRW(race.NewBagsOracle())
			if _, err := race.Analyze(tr, info.Prog, nil, det, nil, false); err != nil {
				b.Fatal(err)
			}
			if pooled {
				det.Release()
			}
		}
	}
	b.Run("fresh", func(b *testing.B) { run(b, false) })
	b.Run("pooled", func(b *testing.B) { run(b, true) })
}

func benchName(n int) string {
	switch n {
	case 8:
		return "n=8"
	case 32:
		return "n=32"
	case 128:
		return "n=128"
	default:
		return "n=512"
	}
}

// BenchmarkLexer and BenchmarkParser measure front-end throughput.
func BenchmarkLexer(b *testing.B) {
	src := bench.Get("Mergesort").Src(1000)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		toks, errs := lexer.ScanAll(src)
		if len(errs) > 0 || len(toks) == 0 {
			b.Fatal("lex failed")
		}
	}
}

func BenchmarkParser(b *testing.B) {
	src := bench.Get("Mergesort").Src(1000)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskpar measures the structured-concurrency runtime: spawn +
// join throughput in both executors.
func BenchmarkTaskparSpawnJoin(b *testing.B) {
	execs := map[string]*taskpar.Executor{
		"goroutines": taskpar.NewGoroutineExecutor(),
		"pool":       taskpar.NewPoolExecutor(0),
	}
	defer execs["pool"].Shutdown()
	for name, exec := range execs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exec.Finish(func(c *taskpar.Ctx) {
					for j := 0; j < 64; j++ {
						c.Async(func(*taskpar.Ctx) {})
					}
				})
			}
		})
	}
}
