package tdr_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"finishrepair/internal/faults"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/obs"
	"finishrepair/internal/repair"
	"finishrepair/tdr"
)

// longRacy is a racy program whose detection run takes long enough (a
// few hundred million work units) that cancellation must interrupt it
// mid-iteration rather than winning by luck.
const longRacy = `
var g = 0;

func main() {
    async {
        for (var i = 0; i < 1000000000; i = i + 1) {
            g = g + 1;
        }
    }
    g = 1;
}
`

// longQuiet is race-free (the loop only touches an async-local
// variable) but long-running: safe to execute on the real parallel
// interpreter under the Go race detector while testing cancellation.
const longQuiet = `
func main() {
    async {
        var s = 0;
        for (var i = 0; i < 1000000000; i = i + 1) {
            s = s + 1;
        }
        println(s);
    }
}
`

// shortRacy races across three asyncs; repairs in well under a second.
const shortRacy = `
var g = 0;

func main() {
    async { g = 1; }
    async { g = 2; }
    g = 3;
    println(g);
}
`

func TestRepairCtxCancelAbortsPromptly(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.RepairCtx(ctx, tdr.RepairOptions{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected cancellation error, repair finished")
	}
	if !errors.Is(err, tdr.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must also unwrap to context.Canceled, got %v", err)
	}
	// Acceptance bound is 100ms after cancel; allow scheduling slack on
	// top of the 10ms cancel delay.
	if elapsed > 110*time.Millisecond {
		t.Fatalf("repair took %v to honor cancellation (want < 110ms)", elapsed)
	}
}

func TestRepairCtxTimeoutIsBudgetError(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RepairCtx(context.Background(), tdr.RepairOptions{
		Budget: tdr.Budget{Timeout: 20 * time.Millisecond},
	})
	if err == nil {
		t.Fatal("expected deadline error, repair finished")
	}
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("expected BudgetExceededError, got %T: %v", err, err)
	}
	if be.Resource != tdr.ResourceDeadline {
		t.Fatalf("expected deadline resource, got %s", be.Resource)
	}
	if errors.Is(err, tdr.ErrCanceled) {
		t.Fatalf("a deadline trip must not read as user cancellation: %v", err)
	}
}

func TestRepairCtxOpBudgetTrips(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RepairCtx(context.Background(), tdr.RepairOptions{
		Budget: tdr.Budget{OpLimit: 100_000},
	})
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) || be.Resource != tdr.ResourceOps {
		t.Fatalf("expected op-budget trip, got %v", err)
	}
	if !tdr.IsBudgetOrCanceled(err) {
		t.Fatalf("IsBudgetOrCanceled must be true for %v", err)
	}
}

// TestRepairDegradesOnDPStateBudget is the graceful-degradation
// acceptance test: with MaxDPStates=1 the DP trips immediately, the
// repair must fall back to the coarse placement, mark the report
// Degraded, and the result must still match the serial elision and
// re-detect race-free.
func TestRepairDegradesOnDPStateBudget(t *testing.T) {
	p, err := tdr.Load(shortRacy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.RepairCtx(context.Background(), tdr.RepairOptions{
		Budget: tdr.Budget{MaxDPStates: 1},
	})
	if err != nil {
		t.Fatalf("degraded repair must still succeed, got %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report must be marked Degraded when the DP-state budget trips")
	}
	if !strings.Contains(rep.DegradedReason, "dp-states") {
		t.Fatalf("DegradedReason should name the tripped resource, got %q", rep.DegradedReason)
	}
	if rep.Output != want {
		t.Fatalf("degraded repair output %q != serial elision %q", rep.Output, want)
	}
	// The repaired program must re-detect race-free.
	rr, err := p.Detect(tdr.MRW)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Races) != 0 {
		t.Fatalf("degraded repair left %d race(s)", len(rr.Races))
	}
}

func TestRepairUndegradedMatchesReference(t *testing.T) {
	p, err := tdr.Load(shortRacy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Repair(tdr.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("unlimited budget must not degrade: %s", rep.DegradedReason)
	}
}

func TestDetectCtxSDPSTNodeBudget(t *testing.T) {
	p, err := tdr.Load(shortRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.DetectCtx(context.Background(), tdr.MRW, tdr.Budget{MaxSDPSTNodes: 2})
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) || be.Resource != tdr.ResourceSDPSTNodes {
		t.Fatalf("expected S-DPST node budget trip, got %v", err)
	}
}

// longFinite spawns 2,000 tasks: its capture records about 20,000
// events, so the first detection round's analysis overlaps the capture.
const longFinite = `
var g = 0;

func main() {
    var a = make([]int, 4);
    for (var i = 0; i < 2000; i = i + 1) {
        async { a[0] = i; }
        g = g + 1;
    }
    println(g);
}
`

// The S-DPST node budget trips while replay builds the tree, so its
// phase is detect, also when the replay overlaps the capture: on
// longFinite the first round's analysis starts during the capture and
// trips at once, at any worker count.
func TestSDPSTNodeBudgetTripsInReplay(t *testing.T) {
	for _, src := range []string{shortRacy, longFinite} {
		p, err := tdr.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		budget := tdr.Budget{MaxSDPSTNodes: 2}
		_, err = p.DetectCtx(context.Background(), tdr.MRW, budget)
		var be *tdr.BudgetExceededError
		if !errors.As(err, &be) || be.Resource != tdr.ResourceSDPSTNodes || be.Phase != "detect" {
			t.Fatalf("detect: expected an S-DPST node budget trip in phase detect, got %v", err)
		}
		for _, e := range []tdr.Engine{tdr.ESPBags, tdr.Both} {
			tr := obs.New()
			_, err = p.RepairCtx(context.Background(), tdr.RepairOptions{Engine: e, Workers: 1, Budget: budget, Tracer: tr})
			if !errors.As(err, &be) || be.Resource != tdr.ResourceSDPSTNodes || be.Phase != "detect" {
				t.Fatalf("repair (engine %v): expected an S-DPST node budget trip in phase detect, got %v", e, err)
			}
			if want := src == longFinite; overlapped(tr) != want {
				t.Fatalf("repair (engine %v): first round overlapped = %v, want %v", e, !want, want)
			}
		}
	}
}

// overlapped reports whether tr recorded an analysis span that ran
// beside its capture (streamed=1).
func overlapped(tr *obs.Tracer) bool {
	for _, r := range tr.Records() {
		for _, a := range r.Attrs {
			if a.Key == "streamed" && a.Int == 1 {
				return true
			}
		}
	}
	return false
}

// TestOpBudgetTripsInOverlappedCapture runs out of interpreter ops
// after the first round's analysis has started beside the capture: the
// trip belongs to the capture, so its phase is trace-capture.
func TestOpBudgetTripsInOverlappedCapture(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	// A few hundred thousand ops record several full-size chunks first.
	budget := tdr.Budget{OpLimit: 500_000}
	_, err = p.DetectCtx(context.Background(), tdr.MRW, budget)
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) || be.Resource != tdr.ResourceOps || be.Phase != "trace-capture" {
		t.Fatalf("detect: expected an op-budget trip in phase trace-capture, got %v", err)
	}
	tr := obs.New()
	_, err = p.RepairCtx(context.Background(), tdr.RepairOptions{Workers: 1, Budget: budget, Tracer: tr})
	if !errors.As(err, &be) || be.Resource != tdr.ResourceOps || be.Phase != "trace-capture" {
		t.Fatalf("repair: expected an op-budget trip in phase trace-capture, got %v", err)
	}
	if !overlapped(tr) {
		t.Fatal("the trip landed before the analysis started")
	}
}

func TestRunParallelCtxCancel(t *testing.T) {
	p, err := tdr.Load(longQuiet)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.RunParallelCtx(ctx, 2, tdr.Budget{})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, tdr.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("parallel run took %v to honor cancellation", elapsed)
	}
}

func TestRunSequentialCtxTimeout(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunSequentialCtx(context.Background(), tdr.Budget{Timeout: 15 * time.Millisecond})
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) || be.Resource != tdr.ResourceDeadline {
		t.Fatalf("expected deadline trip, got %v", err)
	}
}

// TestDotAndCoverageCtxOpBudget runs the S-DPST rendering and the
// coverage measurement of a program that never ends under an op budget:
// both must stop with an op-budget trip rather than record events
// without bound.
func TestDotAndCoverageCtxOpBudget(t *testing.T) {
	p, err := tdr.Load(`func main() { while (true) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	budget := tdr.Budget{OpLimit: 1_000_000}
	_, dotErr := p.SDPSTDotCtx(context.Background(), budget)
	_, covErr := p.CoverageCtx(context.Background(), budget)
	for name, err := range map[string]error{"SDPSTDotCtx": dotErr, "CoverageCtx": covErr} {
		var be *tdr.BudgetExceededError
		if !errors.As(err, &be) || be.Resource != tdr.ResourceOps {
			t.Errorf("%s: expected an op-budget trip, got %v", name, err)
		}
	}
}

// TestInjectionPointsSurfaceTypedErrors sweeps every registered fault
// point: an armed error must surface as an ordinary error from the
// corresponding entry point, and an armed panic must surface as an
// *InternalError carrying a phase — never as a process panic.
func TestInjectionPointsSurfaceTypedErrors(t *testing.T) {
	boom := errors.New("boom")
	// drive exercises the pipeline stage that hits the given point.
	drive := func(pt string) error {
		p, err := tdr.Load(shortRacy)
		if err != nil {
			return err
		}
		switch pt {
		case faults.SequentialRun:
			_, err = p.RunSequential()
		case faults.ParallelRun:
			_, err = p.RunParallelCtx(context.Background(), 2, tdr.Budget{})
		case faults.TraceIO:
			// tdr writes no race trace files; the repair loop does where
			// they are on, as in hjbench -table 2.
			_, err = repair.Repair(parser.MustParse(shortRacy), repair.Options{UseTraceFiles: true})
		default:
			_, err = p.Repair(tdr.RepairOptions{})
		}
		return err
	}
	for _, pt := range faults.Points() {
		pt := pt
		t.Run("error/"+pt, func(t *testing.T) {
			faults.Reset()
			defer faults.Reset()
			faults.ArmError(pt, 1, boom)
			err := drive(pt)
			if err == nil {
				t.Fatalf("injected error at %s did not surface", pt)
			}
			if !errors.Is(err, boom) {
				t.Fatalf("injected error at %s surfaced as %v, want wrap of boom", pt, err)
			}
			if hits := faults.Hits(pt); hits == 0 {
				t.Fatalf("fault point %s never hit", pt)
			}
		})
		t.Run("panic/"+pt, func(t *testing.T) {
			faults.Reset()
			defer faults.Reset()
			faults.ArmPanic(pt, 1, "injected panic at "+pt)
			err := drive(pt)
			if err == nil {
				t.Fatalf("injected panic at %s did not surface", pt)
			}
			var ie *tdr.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("injected panic at %s surfaced as %T (%v), want InternalError", pt, err, err)
			}
			if ie.Phase == "" {
				t.Fatalf("InternalError from %s has no phase", pt)
			}
			if ie.Stack == "" {
				t.Fatalf("InternalError from %s has no stack", pt)
			}
		})
	}
}
