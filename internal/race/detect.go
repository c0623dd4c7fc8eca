package race

import (
	"errors"
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
	rec := trace.NewRecorder()
	res, err := capture(info, m, rec)
	if err != nil {
		return res, nil, err
	}
	mTraceCaptures.Inc()
	return res, rec.Trace(), nil
}

// capture runs the canonical sequential execution into rec, in phase
// trace-capture.
func capture(info *sem.Info, m *guard.Meter, rec *trace.Recorder) (*interp.Result, error) {
	m.SetPhase("trace-capture")
	if err := faults.Inject(faults.Detect); err != nil {
		return nil, err
	}
	return interp.Run(info, interp.Options{Mode: interp.DepthFirst, Trace: rec, Meter: m})
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

// errCaptureAbandoned fails the stream of a capture that unwinds by a
// panic, so the analysis goroutine stops before the panic leaves
// CaptureAnalyze; the panic, not this error, reaches the caller.
var errCaptureAbandoned = errors.New("race: capture abandoned")

// CaptureAnalyze captures the canonical sequential execution of the
// checked program, as Capture does, and analyzes it with det, as
// Analyze does with fins injected. The capture runs on the calling
// goroutine into a streaming recorder. Once it seals its first
// full-size chunk, the replay into det starts on a second goroutine and
// consumes sealed chunks while the capture goes on; a capture that
// never fills a chunk is analyzed after it ends. Either way det sees
// the same events in the same order, so the races, the tree and the
// counts are those of Capture then Analyze.
//
// Under sp, when non-nil, it records a trace-capture span with the
// event count and the analysis span detect/<engine>; the analysis span
// carries streamed=1 when it overlapped the capture, and then the two
// spans overlap in time. The analysis goroutine never sets the meter's
// phase, which stays with the capture until it ends. A capture error
// wins over the analysis error it induces. On every exit, a panic
// included, the analysis goroutine has stopped before CaptureAnalyze
// returns. The returned trace is the complete capture, for later
// rounds to replay.
func CaptureAnalyze(info *sem.Info, fins []trace.FinishRange, det Detector, m *guard.Meter, noCollapse bool, sp *obs.Span) (*interp.Result, *trace.Trace, *trace.Result, error) {
	name := analysisSpan(det)
	opts := trace.ReplayOptions{
		Prog:       info.Prog,
		Finishes:   fins,
		Sink:       det,
		NoCollapse: noCollapse,
		Meter:      m,
	}
	s := trace.NewStream()
	rec := trace.NewRecorder()
	var (
		rr   *trace.Result
		aerr error
		done chan struct{} // closed when the analysis goroutine returns
	)
	rec.StreamTo(s, func() {
		engSpan := sp.Child(name).SetInt("streamed", 1)
		done = make(chan struct{})
		go func() {
			defer close(done)
			t0 := time.Now()
			aerr = guard.Protect("detect", func() error {
				var err error
				rr, err = trace.ReplayStream(s, opts)
				return err
			})
			if aerr == nil {
				observeAnalysis(det, rr, time.Since(t0))
			}
			engSpan.End()
		}()
	})
	capSpan := sp.Child("trace-capture")
	defer func() {
		capSpan.End() // a no-op unless a panic skipped the End below
		if done != nil {
			s.Fail(errCaptureAbandoned) // a no-op once the stream ended
			<-done
		}
	}()

	res, err := capture(info, m, rec)
	if err != nil {
		capSpan.End()
		s.Fail(err)
		return res, nil, nil, err
	}
	tr := rec.Trace()
	capSpan.SetInt("events", int64(tr.Len())).End()
	mTraceCaptures.Inc()

	if done == nil {
		engSpan := sp.Child(name)
		rr, err := Analyze(tr, info.Prog, fins, det, m, noCollapse)
		engSpan.End()
		return res, tr, rr, err
	}
	m.SetPhase("detect")
	<-done
	mStreamChunks.Add(int64(s.Chunks()))
	if aerr != nil {
		return res, tr, nil, aerr
	}
	return res, tr, rr, nil
}

// analysisSpan names det's analysis span: detect/ and the engine's name.
func analysisSpan(det Detector) string {
	if e, ok := det.(Engine); ok {
		return "detect/" + e.Name()
	}
	return "detect/analyze"
}

// CaptureAnalyzeStreamed is CaptureAnalyze without spans. The workers
// argument is unused; the function stays only for existing callers and
// goes with them.
func CaptureAnalyzeStreamed(info *sem.Info, fins []trace.FinishRange, det Detector, m *guard.Meter, noCollapse bool, workers int) (*interp.Result, *trace.Trace, *trace.Result, error) {
	return CaptureAnalyze(info, fins, det, m, noCollapse, nil)
}

// Detect captures the canonical sequential execution of the checked
// program and analyzes it with a fresh detector: capture once, analyze
// once, with no budget. It returns the replayed S-DPST, the tree the
// detector's races reference.
func Detect(info *sem.Info, v Variant, o Oracle) (*interp.Result, *dpst.Tree, Detector, error) {
	det := New(v, o)
	res, tr, rr, err := CaptureAnalyze(info, nil, det, nil, false, nil)
	if tr == nil {
		// The capture failed: no detector ran.
		det.Release()
		return res, nil, nil, err
	}
	if err != nil {
		return res, nil, det, err
	}
	return res, rr.Tree, det, nil
}
