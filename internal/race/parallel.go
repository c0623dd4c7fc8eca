package race

import (
	"runtime"

	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/trace"
)

// effectiveShards clamps a -j request to the machine: sharding the
// shadow memory across more workers than cores only adds demux and
// handoff overhead. On a single-core box every -j value degrades to the
// serial fused scan.
func effectiveShards(workers int) int {
	if n := runtime.GOMAXPROCS(0); workers > n {
		workers = n
	}
	return workers
}

// AnalyzeParallel is Analyze with detector-level parallelism. When det
// is a *Fused engine (the -detector both -j N configuration) and more
// than one worker is requested, the shadow memory is partitioned by
// location hash across min(workers, GOMAXPROCS) shard workers fed from
// one demultiplexing replay pass — see AnalyzeSharded; results are
// byte-identical to the serial scan for any worker count. Any other
// detector, or workers <= 1, falls through to the serial Analyze.
//
// Earlier versions parallelized the differential engine by replaying
// the whole trace once per backend — two trees, two shadow memories,
// double the allocations, and slower than serial whenever cores were
// scarce. That path is gone: the fused engine cross-checks the two
// oracles inside one scan, and parallelism now splits that single scan.
func AnalyzeParallel(tr *trace.Trace, prog *ast.Program, fins []trace.FinishRange, det Detector, m *guard.Meter, noCollapse bool, workers int) (*trace.Result, error) {
	if f, ok := det.(*Fused); ok && workers > 1 {
		if shards := effectiveShards(workers); shards > 1 {
			return AnalyzeSharded(tr, prog, fins, f, m, noCollapse, shards)
		}
	}
	return Analyze(tr, prog, fins, det, m, noCollapse)
}
