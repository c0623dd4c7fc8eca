package race

import (
	"time"

	"finishrepair/internal/dpst"
	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/trace"
)

// Detection metrics, aggregated across all runs in the process.
var (
	mDetectRuns    = obs.Default().Counter("race.detect_runs")
	mRacesFound    = obs.Default().Counter("race.races_found")
	mRawReports    = obs.Default().Counter("race.raw_reports")
	mRacesPerRun   = obs.Default().Histogram("race.races_per_run")
	mSDPSTNodes    = obs.Default().Gauge("race.sdpst_nodes")
	mTraceCaptures = obs.Default().Counter("race.trace_captures")
	mAnalyzeNs     = obs.Default().Histogram("race.analyze_ns")
	mShadowCells   = obs.Default().Histogram("race.shadow_cells")
	mStreamChunks  = obs.Default().Counter("race.stream_chunks")
	mDualQueries   = obs.Default().Counter("race.dual_queries")
)

// Variant selects the detector flavor.
type Variant int

// Detector variants (paper §4.1). MRW is the zero value.
const (
	VariantMRW Variant = iota
	VariantSRW
)

// String names the variant.
func (v Variant) String() string {
	if v == VariantSRW {
		return "SRW"
	}
	return "MRW"
}

// New returns a fresh detector of the given variant over oracle o.
func New(v Variant, o Oracle) Detector {
	if v == VariantSRW {
		return NewSRW(o)
	}
	return NewMRW(o)
}

// Capture executes the canonical sequential depth-first run of the
// checked program once, recording the event-trace IR. The returned
// trace can then be analyzed any number of times — by different
// engines, with different collapse policies, or with virtual finish
// scopes injected — without re-executing the program.
func Capture(info *sem.Info, m *guard.Meter) (*interp.Result, *trace.Trace, error) {
	m.SetPhase("trace-capture")
	if err := faults.Inject(faults.Detect); err != nil {
		return nil, nil, err
	}
	rec := trace.NewRecorder()
	res, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Trace: rec, Meter: m})
	if err != nil {
		return res, nil, err
	}
	mTraceCaptures.Inc()
	return res, rec.Trace(), nil
}

// Tree runs the canonical sequential depth-first execution of the
// checked program and replays it into its collapsed S-DPST with no
// detector attached, for callers that need only the tree (work and
// span). No detection metric is recorded.
func Tree(info *sem.Info) (*dpst.Tree, error) {
	rec := trace.NewRecorder()
	if _, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Trace: rec}); err != nil {
		return nil, err
	}
	rr, err := trace.Replay(rec.Trace(), trace.ReplayOptions{Prog: info.Prog})
	if err != nil {
		return nil, err
	}
	return rr.Tree, nil
}

// Analyze replays a captured trace against a detector engine,
// reconstructing the S-DPST (optionally with virtual finish scopes
// injected) and feeding every structure and access event to det. The
// races det holds afterwards reference the returned replayed tree.
func Analyze(tr *trace.Trace, prog *ast.Program, fins []trace.FinishRange, det Detector, m *guard.Meter, noCollapse bool) (*trace.Result, error) {
	m.SetPhase("detect")
	det.Presize(tr.Len())
	t0 := time.Now()
	rr, err := trace.Replay(tr, trace.ReplayOptions{
		Prog:       prog,
		Finishes:   fins,
		Sink:       det,
		NoCollapse: noCollapse,
		Meter:      m,
	})
	if err != nil {
		return nil, err
	}
	observeAnalysis(det, rr, time.Since(t0))
	return rr, nil
}

// observeAnalysis records the per-analysis metrics shared by the batch
// and streamed paths.
func observeAnalysis(det Detector, rr *trace.Result, elapsed time.Duration) {
	mAnalyzeNs.Observe(elapsed.Nanoseconds())
	mShadowCells.Observe(int64(det.ShadowCells()))
	mDetectRuns.Inc()
	n := int64(len(det.Races()))
	mRacesFound.Add(n)
	mRawReports.Add(int64(det.log().len()))
	mRacesPerRun.Observe(n)
	if rr.Tree != nil {
		mSDPSTNodes.Set(int64(rr.Tree.NumNodes()))
	}
	if e, ok := det.(*engine); ok && e.dual != nil {
		mDualQueries.Add(int64(e.dual.queries))
	}
}

// CaptureAnalyzeStreamed overlaps capture and analysis: the instrumented
// execution records into a stream whose sealed chunks one streaming
// replay feeds to det as they are published, instead of
// capture-once-then-analyze. The returned trace is the complete capture,
// replayable by later iterations exactly like Capture's. A capture error
// wins over the analysis error it induces downstream. The workers
// argument is unused; it stays only for existing callers and goes with
// them.
func CaptureAnalyzeStreamed(info *sem.Info, fins []trace.FinishRange, det Detector, m *guard.Meter, noCollapse bool, workers int) (*interp.Result, *trace.Trace, *trace.Result, error) {
	s := trace.NewStream()
	rec := trace.NewRecorder()
	rec.StreamTo(s)

	var (
		res *interp.Result
		tr  *trace.Trace
	)
	capDone := make(chan error, 1)
	go func() {
		// Protect inside the goroutine: a contained panic must surface as
		// the capture error, not crash the process. Fail on every error
		// path — a stream that never finishes blocks the consumer forever.
		cerr := guard.Protect("trace-capture", func() error {
			m.SetPhase("trace-capture")
			if err := faults.Inject(faults.Detect); err != nil {
				return err
			}
			r, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Trace: rec, Meter: m})
			res = r
			return err
		})
		if cerr != nil {
			s.Fail(cerr)
		} else {
			tr = rec.Trace()
			mTraceCaptures.Inc()
		}
		capDone <- cerr
	}()

	m.SetPhase("detect")
	t0 := time.Now()
	rr, aerr := trace.ReplayStream(s, trace.ReplayOptions{
		Prog:       info.Prog,
		Finishes:   fins,
		Sink:       det,
		NoCollapse: noCollapse,
		Meter:      m,
	})
	if aerr == nil {
		observeAnalysis(det, rr, time.Since(t0))
	}
	cerr := <-capDone
	mStreamChunks.Add(int64(s.Chunks()))
	if cerr != nil {
		return res, nil, nil, cerr
	}
	if aerr != nil {
		return res, tr, nil, aerr
	}
	return res, tr, rr, nil
}

// Detect captures the canonical sequential execution of the checked
// program and analyzes it with a fresh detector: capture once, analyze
// once, with no budget. It returns the replayed S-DPST, the tree the
// detector's races reference.
func Detect(info *sem.Info, v Variant, o Oracle) (*interp.Result, *dpst.Tree, Detector, error) {
	res, tr, err := Capture(info, nil)
	if err != nil {
		return res, nil, nil, err
	}
	det := New(v, o)
	rr, err := Analyze(tr, info.Prog, nil, det, nil, false)
	if err != nil {
		return res, nil, det, err
	}
	return res, rr.Tree, det, nil
}
