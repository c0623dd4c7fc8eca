package race_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"finishrepair/internal/guard"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
)

// spinLoop runs without end, spawning a task per iteration, so its
// trace fills full-size chunks until a budget or cancellation stops it.
const spinLoop = `
var g = 0;
func main() {
    var a = make([]int, 4);
    while (true) {
        async { a[0] = g; }
        g = g + 1;
    }
}`

// failsLate records about 20,000 events, well past the first
// full-size chunk, before it divides by zero.
const failsLate = `
var g = 0;
func main() {
    var a = make([]int, 4);
    for (var i = 0; i < 2000; i = i + 1) {
        async { a[0] = i; }
        g = g + 1;
    }
    var z = 0;
    println(g / z);
}`

// racesLong records about 20,000 events and finishes.
const racesLong = `
var g = 0;
func main() {
    var a = make([]int, 4);
    for (var i = 0; i < 2000; i = i + 1) {
        async { a[0] = i; }
        g = g + 1;
    }
    println(g);
}`

// TestCaptureAnalyzeJoinsAnalysis ends an overlapped round four ways —
// a runtime error in the capture, an op-budget trip, an S-DPST node
// budget trip and a cancellation, each after the analysis goroutine has
// started — and requires the error each names, with the capture's
// errors naming phase trace-capture and the node budget detect, and no
// goroutine left running once CaptureAnalyze returns.
func TestCaptureAnalyzeJoinsAnalysis(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		budget guard.Budget
		cancel bool
		check  func(error) bool
	}{
		{"runtime-error", failsLate, guard.Budget{}, false, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "division by zero")
		}},
		{"op-budget", spinLoop, guard.Budget{OpLimit: 2_000_000}, false, func(err error) bool {
			var be *guard.BudgetExceededError
			return errors.As(err, &be) && be.Resource == guard.ResourceOps && be.Phase == "trace-capture"
		}},
		{"node-budget", racesLong, guard.Budget{MaxSDPSTNodes: 2}, false, func(err error) bool {
			var be *guard.BudgetExceededError
			return errors.As(err, &be) && be.Resource == guard.ResourceSDPSTNodes && be.Phase == "detect"
		}},
		{"cancel", spinLoop, guard.Budget{}, true, func(err error) bool {
			return errors.Is(err, guard.ErrCanceled)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info, err := sem.Check(parser.MustParse(c.src))
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancel {
				// The capture fills its first full-size chunk within a
				// millisecond; the cancellation lands well after.
				time.AfterFunc(30*time.Millisecond, cancel)
			}
			m := guard.NewMeter(ctx, c.budget)
			eng := race.NewEngine(race.EngineESPBags, race.VariantMRW)
			tracer := obs.New()
			sp := tracer.Start("detect")
			_, _, _, err = race.CaptureAnalyze(info, nil, eng, m, false, sp)
			sp.End()
			if !c.check(err) {
				t.Fatalf("CaptureAnalyze returned %v", err)
			}
			if !streamedSpan(tracer) {
				t.Fatal("the analysis never overlapped the capture")
			}
			if tracer.OpenSpans() != 0 {
				t.Fatalf("%d spans left open", tracer.OpenSpans())
			}
			cancel()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive the call, %d before it", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
