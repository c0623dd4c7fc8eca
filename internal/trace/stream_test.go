package trace_test

import (
	"errors"
	"testing"
	"time"

	"finishrepair/internal/trace"
)

// bigSrc produces well over one 4096-event chunk: every loop iteration
// records a task start/end pair plus accesses, so virtual-finish
// injection over main's body is live across every chunk seam.
const bigSrc = `
var g = 0;
func main() {
    var a = make([]int, 8);
    for (var i = 0; i < 2000; i = i + 1) {
        async { a[0] = i; }
        g = g + 1;
    }
    println(g);
}`

// TestReplayStreamMatchesBatch replays a multi-chunk trace both from
// the batch trace and from a stream of its sealed chunks, with a
// virtual finish range spanning every chunk seam, and requires
// identical trees: injection state must carry across seams.
func TestReplayStreamMatchesBatch(t *testing.T) {
	info, _, tr := capture(t, bigSrc)
	if tr.Len() <= 4096 {
		t.Fatalf("fixture too small to cross a chunk seam: %d events", tr.Len())
	}
	blk := info.Prog.Func("main").Body
	fins := []trace.FinishRange{{BlockID: blk.ID, Lo: 0, Hi: len(blk.Stmts) - 1}}

	for _, withFins := range []bool{false, true} {
		f := fins
		if !withFins {
			f = nil
		}
		batch, err := trace.Replay(tr, trace.ReplayOptions{Prog: info.Prog, Finishes: f})
		if err != nil {
			t.Fatalf("batch replay (fins=%v): %v", withFins, err)
		}
		s := trace.StreamOf(tr)
		streamed, err := trace.ReplayStream(s, trace.ReplayOptions{Prog: info.Prog, Finishes: f})
		if err != nil {
			t.Fatalf("streamed replay (fins=%v): %v", withFins, err)
		}
		if s.Chunks() < 2 {
			t.Fatalf("expected a multi-chunk stream, got %d chunks", s.Chunks())
		}
		if want, got := describe(batch.Tree), describe(streamed.Tree); want != got {
			t.Errorf("streamed tree differs (fins=%v)\n-- batch --\n%s\n-- streamed --\n%s",
				withFins, want, got)
		}
		if batch.Steps != streamed.Steps {
			t.Errorf("streamed steps = %d, batch = %d (fins=%v)", streamed.Steps, batch.Steps, withFins)
		}
	}
}

// TestStreamFailUnblocksConsumer checks the producer-failure contract:
// a consumer blocked waiting for the next chunk must return the
// producer's error promptly once Fail is called, instead of hanging.
func TestStreamFailUnblocksConsumer(t *testing.T) {
	info, _, _ := capture(t, bigSrc)
	s := trace.NewStream()
	boom := errors.New("capture exploded")

	done := make(chan error, 1)
	go func() {
		_, err := trace.ReplayStream(s, trace.ReplayOptions{Prog: info.Prog})
		done <- err
	}()

	time.Sleep(10 * time.Millisecond) // let the consumer block on chunk 0
	s.Fail(boom)

	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("consumer returned %v, want the producer's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer still blocked after Fail")
	}
}
