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
	"bytes"
	"runtime"
	"slices"
	"sort"
	"testing"

	"finishrepair/internal/adversary"
	"finishrepair/internal/bench"
	"finishrepair/internal/homework"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/lexer"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/internal/trace"
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
				if _, _, _, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle()); err != nil {
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
				if _, _, _, err := race.Detect(info, race.VariantSRW, race.NewBagsOracle()); err != nil {
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
				if _, err := interp.RunParallel(info, interp.ParallelOptions{Executor: exec}); err != nil {
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
				if _, err := interp.RunParallel(info, interp.ParallelOptions{Executor: exec}); err != nil {
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
// analyze-many halves and compares the engines, per finish-stripped
// Table-1 program: "capture" is the one instrumented execution that
// records the event-trace IR; "espbags" and "vc" replay the trace into
// each single-oracle engine; "both" runs ESP-Bags and then VC as two
// independent analyses and compares their race sets (the
// independent-engines gold standard); "fused" is what -detector both
// runs at every -j, one shadow scan whose every ordering query both
// oracles answer. Engines are released back to the shadow-memory reuse
// pool between iterations, as the repair loop does. It profiles one
// layer; pipebench measures the repair end to end.
func BenchmarkDetectEngines(b *testing.B) {
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := race.Capture(info, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len()), "events")
		})
		// analyze replays the trace into a new engine of kind k and
		// fails on an oracle disagreement; the caller releases it.
		analyze := func(b *testing.B, k race.EngineKind) race.Engine {
			eng := race.NewEngine(k, race.VariantMRW)
			if _, err := race.Analyze(tr, info.Prog, nil, eng, nil, false); err != nil {
				b.Fatal(err)
			}
			if err := eng.Check(); err != nil {
				b.Fatal(err)
			}
			return eng
		}
		stages := []struct {
			name string
			run  func(b *testing.B)
		}{
			{"espbags", func(b *testing.B) { analyze(b, race.EngineESPBags).Release() }},
			{"vc", func(b *testing.B) { analyze(b, race.EngineVC).Release() }},
			{"both", func(b *testing.B) {
				var keys [2][]string
				for i, kind := range []race.EngineKind{race.EngineESPBags, race.EngineVC} {
					eng := analyze(b, kind)
					for _, r := range eng.Races() {
						keys[i] = append(keys[i], r.String())
					}
					eng.Release()
					sort.Strings(keys[i])
				}
				if !slices.Equal(keys[0], keys[1]) {
					b.Fatalf("espbags found %d race(s), vc %d: race sets differ", len(keys[0]), len(keys[1]))
				}
			}},
			{"fused", func(b *testing.B) { analyze(b, race.EngineBoth).Release() }},
		}
		for _, st := range stages {
			b.Run(bm.Name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				// Warm the detector pools so B/op reflects the steady
				// state, not one-time slab growth.
				st.run(b)
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.run(b)
				}
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
				if _, _, _, err := race.Detect(info, race.VariantMRW, mk()); err != nil {
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

// BenchmarkRaceReports measures the race-report path on the two
// benchmarks with the most raw reports. "analyze" is an MRW analysis of
// the captured trace through Races(): raw reports logged, then resolved
// and deduplicated. "trace-io" is the race-trace round trip the repair
// loop runs every round (WriteTrace, then ReadTrace against the same
// S-DPST). Both report ns per raw report, the raw count taken from the
// race.raw_reports counter.
func BenchmarkRaceReports(b *testing.B) {
	for _, name := range []string{"Mergesort", "LUFact"} {
		bm := bench.Get(name)
		prog := parser.MustParse(bm.Src(bm.RepairSize))
		ast.StripFinishes(prog)
		info := sem.MustCheck(prog)
		_, tr, err := race.Capture(info, nil)
		if err != nil {
			b.Fatal(err)
		}
		analyze := func() (*race.MRW, *trace.Result) {
			det := race.NewMRW(race.NewBagsOracle())
			rr, err := race.Analyze(tr, info.Prog, nil, det, nil, false)
			if err != nil {
				b.Fatal(err)
			}
			return det, rr
		}
		before := obs.Default().Snapshot()
		det, rr := analyze()
		var raw int64
		for _, s := range obs.Default().Delta(before) {
			if s.Name == "race.raw_reports" {
				raw = s.Value
			}
		}
		races := det.Races()
		if raw < int64(len(races)) || len(races) == 0 {
			b.Fatalf("%s: %d raw reports behind %d races", name, raw, len(races))
		}
		perRaw := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(raw), "ns/raw-report")
		}
		b.Run(name+"/analyze", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, _ := analyze()
				d.Release()
			}
			perRaw(b)
		})
		b.Run(name+"/trace-io", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := race.WriteTrace(&buf, races); err != nil {
					b.Fatal(err)
				}
				if _, err := race.ReadTrace(&buf, rr.Tree); err != nil {
					b.Fatal(err)
				}
			}
			perRaw(b)
		})
		det.Release()
	}
}

// BenchmarkAdversaryVerify measures the adversary stage of an
// -adversary 16 repair: each Table-1 program but LUFact and Mergesort,
// finish-stripped at repair size, is repaired once outside the timer
// (strategy auto, collecting every round's racing locations), then
// adversary.Verify runs it under VerifySchedules(locs, 16, 1) against
// the serial oracle. It reports ms per schedule, ns per yield point,
// and the share of yields that hand the token to another task.
func BenchmarkAdversaryVerify(b *testing.B) {
	for _, bm := range bench.All() {
		if bm.Name == "LUFact" || bm.Name == "Mergesort" {
			continue
		}
		prog := parser.MustParse(bm.Src(bm.RepairSize))
		ast.StripFinishes(prog)
		seen := map[uint64]bool{}
		var locs []uint64
		_, err := repair.Repair(prog, repair.Options{
			Variant:       race.VariantMRW,
			UseTraceFiles: true,
			Workers:       1,
			Strategy:      repair.StrategyAuto,
			OnRaces: func(races []*race.Race) {
				for _, r := range races {
					if !seen[r.Loc] {
						seen[r.Loc] = true
						locs = append(locs, r.Loc)
					}
				}
			},
		})
		if err != nil {
			b.Fatalf("%s: %v", bm.Name, err)
		}
		sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
		info := sem.MustCheck(prog)
		oracle, err := adversary.Oracle(info, nil)
		if err != nil || oracle.Err != nil {
			b.Fatalf("%s oracle: %v %v", bm.Name, err, oracle.Err)
		}
		scheds := adversary.VerifySchedules(locs, 16, 1)
		before := obs.Default().Snapshot()
		if _, err := adversary.Verify(info, oracle, scheds, adversary.SearchOptions{Seed: 1}); err != nil {
			b.Fatalf("%s: %v", bm.Name, err)
		}
		var yields, handoffs int64
		for _, x := range obs.Default().Delta(before) {
			switch x.Name {
			case "adversary.yields":
				yields = x.Value
			case "adversary.handoffs":
				handoffs = x.Value
			}
		}
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := adversary.Verify(info, oracle, scheds, adversary.SearchOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failures > 0 {
					b.Fatalf("%d of %d schedules diverged", rep.Failures, len(scheds))
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/1e6/float64(len(scheds)), "ms/schedule")
			b.ReportMetric(ns/float64(yields), "ns/yield")
			b.ReportMetric(float64(handoffs)/float64(yields), "handoffs/yield")
		})
	}
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
