package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"finishrepair/internal/adversary"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/internal/trace"
	"finishrepair/tdr"
)

// layerSample is one traced repair of one program. The pipeline part
// replays what tdr.Load, Repair and Source do, calling each layer's
// public function from here and timing it; its times partition e2e up
// to unattributed. The probe part runs after the pipeline, outside e2e:
// a fresh capture and analysis of the buggy program, which splits the
// first detection round into capture and analysis.
type layerSample struct {
	e2e time.Duration

	parse, sem, print time.Duration
	detect, verify    time.Duration // detection rounds with races; the race-free round
	traceIO           time.Duration
	place, rewrite    time.Duration
	oracle, advVerify time.Duration
	capture, analyze  time.Duration // probes
	fused             time.Duration // probe, fused-engine workloads only
	events            int64         // probe capture's event count
	shadowCells       int64
	dualQueries       int64
	streamChunks      int64
	strategyProbes    int64
	isolatedProbes    int64
	commuteVerdicts   int64
	commuteConfirmed  int64
	lockClasses       int64
	yields            int64
	traceBytes        int64
	schedules         int64
	isolatedInserted  int64
	races, sdpstNodes int64
	dpStates, groups  int64
	iterations        int64
	output, source    string
}

// attributed is the sum of the pipeline's layer times.
func (s *layerSample) attributed() time.Duration {
	return s.parse + s.sem + s.print + s.detect + s.verify + s.traceIO +
		s.place + s.rewrite + s.oracle + s.advVerify
}

// counts is the part of the sample the determinism check compares
// with the untraced repairs.
func (s *layerSample) counts() counts {
	return counts{
		Races: s.races, SDPSTNodes: s.sdpstNodes, DPStates: s.dpStates,
		Groups: s.groups, Iterations: s.iterations, Schedules: s.schedules,
		Isolated: s.isolatedInserted,
	}
}

// engineKind maps the facade's engine to the race package's, as tdr
// does.
func engineKind(e tdr.Engine) race.EngineKind {
	switch e {
	case tdr.VC:
		return race.EngineVC
	case tdr.Both:
		return race.EngineBoth
	default:
		return race.EngineESPBags
	}
}

// fusedWorkers is the -j of the fused-engine probes: hjrepair
// -detector both -j 2, one worker per vCPU of a 2-vCPU host.
const fusedWorkers = 2

// tracedRepair repairs src the way tdr does for opts (MRW detector,
// auto strategy, optional adversarial verification), timing each layer
// call. fused adds the fused-engine probes.
func tracedRepair(src string, opts tdr.RepairOptions, fused bool) (*layerSample, error) {
	s := &layerSample{}
	before := obs.Default().Snapshot()
	m := guard.NewMeter(context.Background(), opts.Budget)
	t0 := time.Now()

	// tdr.Load: parse, then check.
	a := time.Now()
	prog, err := parser.Parse(src)
	s.parse = time.Since(a)
	if err != nil {
		return nil, err
	}
	a = time.Now()
	_, err = sem.Check(prog)
	s.sem = time.Since(a)
	if err != nil {
		return nil, err
	}

	// tdr.Repair: the repair loop, whose report splits detection,
	// trace I/O, placement and rewrite per round. Adversary mode first
	// snapshots the source and collects every round's race targets.
	adv := opts.AdversarySchedules > 0
	var targets []adversary.RaceTarget
	ropts := repair.Options{
		Variant:       race.VariantMRW,
		Engine:        engineKind(opts.Engine),
		MaxIterations: opts.Budget.Iterations(),
		UseTraceFiles: true,
		Meter:         m,
		Workers:       opts.Workers,
		Strategy:      repair.StrategyAuto,
	}
	if adv {
		a = time.Now()
		_ = printer.Print(prog)
		s.print += time.Since(a)
		seen := map[adversary.RaceTarget]bool{}
		ropts.OnRaces = func(races []*race.Race) {
			for _, r := range races {
				t := adversary.RaceTarget{Loc: r.Loc, Kind: r.Kind.String(), SrcPos: r.Src.StmtPos(), DstPos: r.Dst.StmtPos()}
				if !seen[t] {
					seen[t] = true
					targets = append(targets, t)
				}
			}
		}
	}
	rep, err := repair.Repair(prog, ropts)
	if err != nil {
		return nil, err
	}
	for _, it := range rep.Iterations {
		if it.Races > 0 {
			s.detect += it.DetectTime
		} else {
			s.verify += it.DetectTime
		}
		s.place += it.PlaceTime
		s.rewrite += it.RewriteTime
		s.traceIO += it.RepairTime - it.PlaceTime - it.RewriteTime
		s.races += int64(it.Races)
		s.sdpstNodes += int64(it.SDPSTNodes)
		s.dpStates += it.DPStates
		s.groups += int64(it.NSLCAs)
		for _, ap := range it.Applied {
			if ap.Kind == trace.RangeIsolated {
				s.isolatedInserted++
			}
		}
	}
	s.iterations = int64(len(rep.Iterations))
	s.traceBytes = int64(rep.TraceBytes)
	s.output = rep.Output

	// tdr's adversary stage: serial oracle, then K schedules.
	if adv {
		a = time.Now()
		info, err := sem.Check(prog)
		s.sem += time.Since(a)
		if err != nil {
			return nil, err
		}
		a = time.Now()
		oracle, err := adversary.Oracle(info, m)
		s.oracle = time.Since(a)
		if err != nil {
			return nil, err
		}
		if oracle.Err != nil {
			return nil, fmt.Errorf("serial oracle: %w", oracle.Err)
		}
		a = time.Now()
		scheds := adversary.VerifySchedules(targetLocs(targets), opts.AdversarySchedules, opts.SchedSeed)
		vrep, err := adversary.Verify(info, oracle, scheds, adversary.SearchOptions{Meter: m, Seed: opts.SchedSeed})
		s.advVerify = time.Since(a)
		if err != nil {
			return nil, err
		}
		if vrep.Failures > 0 {
			return nil, fmt.Errorf("adversarial verify: %d of %d schedules diverged", vrep.Failures, len(vrep.Schedules))
		}
		s.schedules = int64(len(vrep.Schedules))
	}

	// tdr.Source.
	a = time.Now()
	s.source = printer.Print(prog)
	s.print += time.Since(a)
	s.e2e = time.Since(t0)

	d := delta(before)
	s.shadowCells = d["race.shadow_cells"]
	s.strategyProbes = d["repair.strategy_chosen"]
	s.isolatedProbes = d["repair.cpl_delta#count"]
	s.commuteVerdicts = d["analysis.commute_verdicts"]
	s.commuteConfirmed = d["analysis.commute_confirmed"]
	s.lockClasses = d["repair.lock_classes"]
	s.yields = d["adversary.yields"]

	return s, probe(s, src, fused)
}

// probe captures and analyzes a fresh parse of the buggy program, the
// work of the first detection round, timing capture and ESP-Bags
// analysis apart. With fused it also times the fused engine's sharded
// scan of that trace, then runs the streamed capture-and-analysis the
// first round of a -detector both -j 2 repair does, counting the fused
// engine's ordering queries and the stream's chunks.
func probe(s *layerSample, src string, fused bool) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	info, err := sem.Check(prog)
	if err != nil {
		return err
	}
	a := time.Now()
	_, tr, err := race.Capture(info, nil)
	s.capture = time.Since(a)
	if err != nil {
		return err
	}
	s.events = int64(tr.Len())
	eng := race.NewEngine(race.EngineESPBags, race.VariantMRW)
	a = time.Now()
	_, err = race.Analyze(tr, info.Prog, nil, eng, nil, false)
	s.analyze = time.Since(a)
	if rel, ok := eng.(race.Releaser); ok {
		rel.Release()
	}
	if err != nil {
		return err
	}
	if !fused {
		return nil
	}
	before := obs.Default().Snapshot()
	f := race.NewFused(race.VariantMRW)
	a = time.Now()
	_, err = race.AnalyzeParallel(tr, info.Prog, nil, f, nil, false, fusedWorkers)
	s.fused = time.Since(a)
	if err == nil {
		err = f.Check()
	}
	f.Release()
	if err != nil {
		return err
	}
	g := race.NewFused(race.VariantMRW)
	_, _, _, err = race.CaptureAnalyzeStreamed(info, nil, g, nil, false, fusedWorkers)
	if err == nil {
		err = g.Check()
	}
	g.Release()
	d := delta(before)
	s.dualQueries, s.streamChunks = d["race.dual_queries"], d["race.stream_chunks"]
	return err
}

// delta is the change of every counter and histogram sum of the default
// registry since before; a histogram's observation count appears under
// "<name>#count".
func delta(before []obs.Sample) map[string]int64 {
	out := map[string]int64{}
	for _, x := range obs.Default().Delta(before) {
		out[x.Name] = x.Value
		if x.Kind == "histogram" {
			out[x.Name+"#count"] = x.Count
		}
	}
	return out
}

// targetLocs lists the distinct racing locations in ascending order, as
// the adversary stage of tdr does.
func targetLocs(targets []adversary.RaceTarget) []uint64 {
	seen := map[uint64]bool{}
	var locs []uint64
	for _, t := range targets {
		if !seen[t.Loc] {
			seen[t.Loc] = true
			locs = append(locs, t.Loc)
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}
