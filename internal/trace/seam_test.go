package trace

import (
	"fmt"
	"reflect"
	"testing"

	"finishrepair/internal/dpst"
)

// logSink records every replayed callback, so two replays can be
// compared event for event.
type logSink struct{ log []string }

func (s *logSink) Read(loc uint64, step *dpst.Node, site Site) {
	s.log = append(s.log, fmt.Sprintf("R %d %d %v", loc, step.ID, site))
}
func (s *logSink) Write(loc uint64, step *dpst.Node, site Site) {
	s.log = append(s.log, fmt.Sprintf("W %d %d %v", loc, step.ID, site))
}
func (s *logSink) TaskStart(n *dpst.Node)   { s.log = append(s.log, fmt.Sprintf("TS %d", n.ID)) }
func (s *logSink) TaskEnd(n *dpst.Node)     { s.log = append(s.log, fmt.Sprintf("TE %d", n.ID)) }
func (s *logSink) FinishStart(n *dpst.Node) { s.log = append(s.log, fmt.Sprintf("FS %d", n.ID)) }
func (s *logSink) FinishEnd(n *dpst.Node)   { s.log = append(s.log, fmt.Sprintf("FE %d", n.ID)) }

// recordSynthetic records exactly n (>= 2) events on rec: a step that
// reads and writes, with a six-event async (push, step, write, end,
// pop, and the step that resumes the parent) every third position while
// room remains, and a final end.
func recordSynthetic(rec *Recorder, n int) {
	rec.Step(nil, 0)
	left := n - 2 // the opening step and the closing end
	for i := 0; left > 0; i++ {
		rec.AddWork(1)
		switch {
		case i%3 == 0 && left >= 6:
			rec.Push(uint8(dpst.Async), uint8(dpst.NotScope), "async", nil, 0, nil)
			rec.Step(nil, 0)
			rec.Write(uint64(i % 7))
			rec.End()
			rec.Pop()
			rec.Step(nil, 0)
			left -= 6
		case i%2 == 0:
			rec.Write(uint64(i % 5))
			left--
		default:
			rec.Read(uint64(i % 5))
			left--
		}
	}
	rec.End()
}

// TestStreamSeams records synthetic traces one event below, at and one
// above the first chunk seam and the first full-size seal, replays each
// both from the finished trace and from the stream that mirrored its
// capture, and requires identical replays. The stream must publish
// every chunk exactly once, in order, and the full-size hook must fire
// once a full-size chunk seals, and only then. Where it fires, the
// streamed replay starts from the hook and overlaps the rest of the
// capture.
func TestStreamSeams(t *testing.T) {
	firstFull := 0 // events recorded when the first full-size chunk seals
	for n := firstChunkLen; n < chunkLen; n *= 2 {
		firstFull += n
	}
	firstFull += chunkLen
	for _, n := range []int{
		firstChunkLen - 1, firstChunkLen, firstChunkLen + 1,
		firstFull - 1, firstFull, firstFull + 1,
	} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := NewStream()
			rec := NewRecorder()
			var (
				streamed  *Result
				streamLog logSink
				serr      error
				done      chan struct{}
				hookAt    = -1
			)
			replay := func() {
				defer close(done)
				streamed, serr = ReplayStream(s, ReplayOptions{Sink: &streamLog})
			}
			rec.StreamTo(s, func() {
				hookAt = rec.t.n
				done = make(chan struct{})
				go replay()
			})
			recordSynthetic(rec, n)
			tr := rec.Trace()
			if tr.Len() != n {
				t.Fatalf("recorded %d events, want %d", tr.Len(), n)
			}
			if wantHook := n >= firstFull; (hookAt >= 0) != wantHook {
				t.Fatalf("full-size hook fired at %d, want fired=%v", hookAt, wantHook)
			}
			if hookAt >= 0 && hookAt != firstFull {
				t.Fatalf("full-size hook fired after %d events, want %d", hookAt, firstFull)
			}
			if done == nil {
				done = make(chan struct{})
				replay()
			}
			<-done
			if serr != nil {
				t.Fatalf("streamed replay: %v", serr)
			}

			// Every chunk exactly once, in capture order.
			if s.Chunks() != len(tr.chunks) {
				t.Fatalf("stream published %d chunks, trace has %d", s.Chunks(), len(tr.chunks))
			}
			total := 0
			for i, c := range tr.chunks {
				if &s.chunks[i][0] != &c[0] || len(s.chunks[i]) != len(c) {
					t.Fatalf("published chunk %d is not trace chunk %d", i, i)
				}
				if want := min(firstChunkLen<<i, chunkLen); cap(c) != want {
					t.Fatalf("chunk %d holds %d events, want %d", i, cap(c), want)
				}
				total += len(c)
			}
			if total != n {
				t.Fatalf("published chunks hold %d events, want %d", total, n)
			}

			var batchLog logSink
			batch, err := Replay(tr, ReplayOptions{Sink: &batchLog})
			if err != nil {
				t.Fatalf("batch replay: %v", err)
			}
			if !reflect.DeepEqual(batchLog.log, streamLog.log) {
				t.Fatalf("streamed replay saw %d callbacks, batch %d, or they differ", len(streamLog.log), len(batchLog.log))
			}
			if batch.Steps != streamed.Steps || batch.Tree.NumNodes() != streamed.Tree.NumNodes() ||
				batch.Tree.Root.Work != streamed.Tree.Root.Work {
				t.Fatalf("streamed tree (%d steps, %d nodes, work %d) differs from batch (%d, %d, %d)",
					streamed.Steps, streamed.Tree.NumNodes(), streamed.Tree.Root.Work,
					batch.Steps, batch.Tree.NumNodes(), batch.Tree.Root.Work)
			}
		})
	}
}
