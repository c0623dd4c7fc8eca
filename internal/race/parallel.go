package race

import (
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/trace"
)

// AnalyzeParallel is Analyze: every engine, the fused one included, runs
// one serial shadow scan at any -j. The workers argument is unused; it
// stays only for existing callers and goes with them.
func AnalyzeParallel(tr *trace.Trace, prog *ast.Program, fins []trace.FinishRange, det Detector, m *guard.Meter, noCollapse bool, workers int) (*trace.Result, error) {
	return Analyze(tr, prog, fins, det, m, noCollapse)
}
