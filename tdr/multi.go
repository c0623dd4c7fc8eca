package tdr

import (
	"context"
	"fmt"

	"finishrepair/internal/coverage"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/repair"
)

// CoverageReport reports how much of the program the built-in test
// input exercises — the paper's §9 test-adequacy analysis. An input that
// leaves async statements unexecuted cannot drive their repair; Adequate
// flags that.
type CoverageReport = coverage.Coverage

// Coverage measures the test coverage of the program's input.
func (p *Program) Coverage() (CoverageReport, error) {
	return p.CoverageCtx(context.Background(), Budget{})
}

// CoverageCtx is Coverage with cancellation and a budget: the measured
// execution charges against b's op limit and aborts with a typed error
// when ctx is canceled or a limit trips.
func (p *Program) CoverageCtx(ctx context.Context, b Budget) (CoverageReport, error) {
	m := guard.NewMeter(ctx, b)
	var c CoverageReport
	err := guard.Protect("coverage", func() error {
		m.SetPhase("coverage")
		var err error
		c, err = coverage.Measure(p.info, m)
		return err
	})
	if err != nil {
		return CoverageReport{}, fmt.Errorf("tdr: %w", err)
	}
	return c, nil
}

// RepairAcross applies the tool iteratively over several test inputs
// (paper §2: "the tool is applied iteratively for different test
// inputs"). The inputs are renderings of ONE program that differ only in
// constants (e.g. input sizes); block structure must be identical, which
// holds when they come from the same template.
//
// Each input's repair placements are replayed onto the next input before
// its own detection runs, so later inputs only contribute repairs for
// races the earlier inputs missed. The returned source is the final
// rendering (last input) with every inserted finish and isolated; the
// report aggregates all rounds.
//
// Detector, Engine, Workers, Strategy, Budget and Tracer apply as in
// Repair. Vet, Explain, Witness and AdversarySchedules do not: they
// describe one program's repair, not a session over several inputs.
func RepairAcross(srcs []string, opts RepairOptions) (string, *RepairReport, error) {
	return RepairAcrossCtx(context.Background(), srcs, opts)
}

// RepairAcrossCtx is RepairAcross with cancellation and a budget. ONE
// meter spans every input: the op, DP-state, and wall-clock budgets are
// cumulative across the whole multi-input session, not per input.
func RepairAcrossCtx(ctx context.Context, srcs []string, opts RepairOptions) (string, *RepairReport, error) {
	if len(srcs) == 0 {
		return "", nil, fmt.Errorf("tdr: no inputs")
	}
	m := guard.NewMeter(ctx, opts.Budget)
	ropts := opts.loop(opts.Tracer, m)
	total := &RepairReport{}
	var applied []repair.Iteration
	for i, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		info, err := sem.Check(prog)
		if err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		if err := repair.Replay(prog, applied); err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		var rep *repair.Report
		err = guard.Protect("repair", func() error {
			var rerr error
			rep, rerr = repair.RepairChecked(info, ropts)
			return rerr
		})
		if err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		applied = append(applied, rep.Iterations...)
		part := convertReport(rep)
		total.Iterations += part.Iterations
		total.RacesFound += part.RacesFound
		total.FinishesInserted += part.FinishesInserted
		total.PerIteration = append(total.PerIteration, part.PerIteration...)
		total.Output = part.Output
		if part.Degraded && !total.Degraded {
			total.Degraded = true
			total.DegradedReason = part.DegradedReason
		}
	}

	final, err := parser.Parse(srcs[len(srcs)-1])
	if err != nil {
		return "", nil, err
	}
	if err := repair.Replay(final, applied); err != nil {
		return "", nil, err
	}
	if _, err := sem.Check(final); err != nil {
		return "", nil, fmt.Errorf("tdr: repaired program invalid: %w", err)
	}
	return printer.Print(final), total, nil
}
