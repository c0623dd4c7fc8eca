package repair

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"finishrepair/internal/analysis"
	"finishrepair/internal/analysis/commute"
	"finishrepair/internal/cpl"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// Strategy metrics: one count per evaluated race group, the span
// difference (finish span minus isolated span; positive means isolated
// was the cheaper repair) whenever both candidates were comparable, and
// one count per isolated placement that earned a per-location lock
// class (class > 0) instead of the global isolated lock.
var (
	mStrategyChosen = obs.Default().Counter("repair.strategy_chosen")
	mCPLDelta       = obs.Default().Histogram("repair.cpl_delta")
	mLockClasses    = obs.Default().Counter("repair.lock_classes")
)

// Strategy selects how the repair loop eliminates a race group.
type Strategy int

// Repair strategies. StrategyFinish is the zero value so library
// callers that never set Options.Strategy keep the paper's
// finish-insertion behavior unchanged.
const (
	// StrategyFinish always inserts finish scopes (paper §5-§6).
	StrategyFinish Strategy = iota
	// StrategyIsolated wraps the racing update regions in isolated
	// whenever that is feasible (statically recognized commutative
	// updates whose serialization order cannot change the result,
	// confirmed by the semantic order probe) and verified to eliminate
	// the group's races on replay; infeasible groups fall back to finish
	// insertion.
	StrategyIsolated
	// StrategyAuto evaluates both candidates per race group and picks
	// isolated only when its post-repair critical path is strictly
	// shorter than the finish candidate's.
	StrategyAuto
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyIsolated:
		return "isolated"
	case StrategyAuto:
		return "auto"
	default:
		return "finish"
	}
}

// ParseStrategy maps a CLI flag value to a strategy. "iso" is accepted
// as a short alias of "isolated".
func ParseStrategy(s string) (Strategy, bool) {
	switch s {
	case "finish":
		return StrategyFinish, true
	case "isolated", "iso":
		return StrategyIsolated, true
	case "auto":
		return StrategyAuto, true
	}
	return StrategyFinish, false
}

// strategyChoice records why a group got a finish or an isolated repair,
// for provenance. Spans are post-repair critical paths measured by
// replaying the captured trace with the candidate applied on top of the
// round's base virtual set; IsoSpan is 0 when the isolated candidate
// was infeasible or failed its probe. Family names the recognized
// commutative update family (or families) of the group's regions, and
// probe the semantic order-probe outcome ("confirmed", "refuted", or
// "unsupported").
type strategyChoice struct {
	strategy   string // "finish" or "isolated"
	why        string
	finishSpan int64
	isoSpan    int64
	family     string
	probe      string
}

// strategyEvaluator holds one round's context for per-group strategy
// selection in the trace-replay loop. It is invoked from the
// deterministic accumulation pass of placeGroups (group order), and all
// probes replay against the same base virtual set, so the chosen
// program is identical for any worker count. The commutativity site
// index, the effect-region location partition, and semantic probe
// verdicts are built lazily and cached for the round.
type strategyEvaluator struct {
	tr       *trace.Trace
	info     *sem.Info
	prog     *ast.Program
	base     []trace.FinishRange
	meter    *guard.Meter
	strategy Strategy

	sites     *commute.SiteIndex
	isoBodies map[*ast.Block]bool
	locs      *analysis.Result
	probed    map[[2]commute.Key]error
}

// choose decides between the group's finish placements (already
// computed by the DP) and an isolated wrapping of its recognized update
// regions.
func (ev *strategyEvaluator) choose(g *group, finishPs []Placement) ([]Placement, *strategyChoice) {
	mStrategyChosen.Inc()
	ch := &strategyChoice{strategy: "finish"}
	isoPs, reason := ev.isolatedCandidate(g, ch)
	if reason != "" {
		ch.why = "isolated infeasible: " + reason
		return finishPs, ch
	}
	isoGone, isoSpan, err := ev.probe(isoPs, g)
	if err != nil {
		ch.why = "isolated probe failed: " + err.Error()
		return finishPs, ch
	}
	if !isoGone {
		ch.why = "isolated wrapping does not eliminate the group's races"
		return finishPs, ch
	}
	ch.isoSpan = isoSpan
	_, finSpan, err := ev.probe(finishPs, g)
	if err != nil {
		ch.why = "finish probe failed: " + err.Error()
		return finishPs, ch
	}
	ch.finishSpan = finSpan
	mCPLDelta.Observe(finSpan - isoSpan)
	if ev.strategy == StrategyIsolated {
		ch.strategy = "isolated"
		ch.why = "strategy=isolated and the wrapping eliminates the group's races"
		return isoPs, ch
	}
	if isoSpan < finSpan {
		ch.strategy = "isolated"
		ch.why = fmt.Sprintf("post-repair critical path %d beats finish's %d", isoSpan, finSpan)
		return isoPs, ch
	}
	ch.why = fmt.Sprintf("finish critical path %d <= isolated's %d", finSpan, isoSpan)
	return finishPs, ch
}

// probe replays the captured trace with base ∪ cand injected virtually
// into a fresh ESP-Bags MRW detector and reports whether every race of
// the group vanished, plus the critical-path span of the resulting
// tree. Node IDs shift between replays (synthetic scopes renumber), so
// group races are matched by their stable coordinates: location, access
// kind, and the two source sites.
func (ev *strategyEvaluator) probe(cand []Placement, g *group) (vanished bool, span int64, err error) {
	merged, _ := mergeVirtual(ev.base, cand)
	det := race.NewEngine(race.EngineESPBags, race.VariantMRW)
	defer det.Release()
	rr, err := race.Analyze(ev.tr, ev.prog, merged, det, ev.meter, false)
	if err != nil {
		return false, 0, err
	}
	want := make(map[siteKey]bool, 2*len(g.races))
	for _, r := range g.races {
		want[siteKeyOf(r)] = true
		want[siteKeyOf(flipRace(r))] = true
	}
	for _, r := range det.Races() {
		if want[siteKeyOf(r)] {
			return false, cpl.Analyze(rr.Tree).Span, nil
		}
	}
	return true, cpl.Analyze(rr.Tree).Span, nil
}

// siteKey identifies a race by replay-stable coordinates.
type siteKey struct {
	loc               uint64
	kind              race.Kind
	srcBlock, srcStmt int32
	dstBlock, dstStmt int32
}

func siteKeyOf(r *race.Race) siteKey {
	return siteKey{
		loc:      r.Loc,
		kind:     r.Kind,
		srcBlock: r.SrcSite.Block,
		srcStmt:  r.SrcSite.Stmt,
		dstBlock: r.DstSite.Block,
		dstStmt:  r.DstSite.Stmt,
	}
}

func flipRace(r *race.Race) *race.Race {
	return &race.Race{Src: r.Dst, Dst: r.Src, Loc: r.Loc, Kind: r.Kind,
		SrcSite: r.DstSite, DstSite: r.SrcSite}
}

// isolatedCandidate builds the isolated repair for one group: resolve
// each racing access site to its recognized commutative update region
// (internal/analysis/commute), and wrap each distinct region in its own
// isolated statement tagged with the region's inferred lock class. It
// returns a non-empty reason when the group is not amenable:
//
//   - an access site has no statement coordinates (global initializer),
//   - a site does not resolve to a block statement,
//   - a site's statement lies inside a source-level isolated body
//     (wrapping it would nest isolated regions),
//   - an access statement is not part of a recognized commutative
//     update region (single statement or a bounded straight-line region
//     of local computation feeding one shared update),
//   - two updates of the same location belong to incompatible families
//     (e.g. one additive, one multiplicative), or
//   - the semantic order probe refutes, or cannot model, a pair of the
//     group's updates.
//
// The commutativity gate is what makes the rewrite output-preserving:
// the isolated lock serializes the updates in a nondeterministic order,
// so the updates must yield the same final value under every order.
// Every static "commutes" verdict is backed by the semantic probe —
// both orders of each update pair are executed under the serial
// interpreter on concrete states and their rendered final states
// compared — so a recognizer bug degrades to the always-sound finish
// repair instead of a silent output change.
func (ev *strategyEvaluator) isolatedCandidate(g *group, ch *strategyChoice) ([]Placement, string) {
	if ev.sites == nil {
		ev.sites = commute.NewSiteIndex(ev.prog)
		ev.isoBodies = isolatedBodies(ev.prog)
	}
	seen := map[commute.Key]bool{}
	var updates []commute.Update
	byTarget := map[*sem.Symbol]commute.Update{}
	for _, r := range g.races {
		for _, site := range []trace.Site{r.SrcSite, r.DstSite} {
			if site.Block < 0 || site.Stmt < 0 {
				return nil, "access site has no statement coordinates"
			}
			b := ast.FindBlock(ev.prog, int(site.Block))
			if b == nil || int(site.Stmt) >= len(b.Stmts) {
				return nil, "access site does not resolve to a statement"
			}
			if ev.isoBodies[b] {
				return nil, "access site lies inside a source-level isolated body"
			}
			st := b.Stmts[site.Stmt]
			u, ok := ev.sites.At(st)
			if !ok {
				return nil, fmt.Sprintf("statement at %s is not a commutative integer update", st.Pos())
			}
			tgt := u.TargetBase()
			if tgt == nil {
				return nil, "update target has no base symbol"
			}
			if prev, ok := byTarget[tgt]; ok {
				if !commute.Compatible(prev, u) {
					return nil, fmt.Sprintf("group mixes %s and %s updates of %s",
						prev.Family, u.Family, tgt.Name)
				}
			} else {
				byTarget[tgt] = u
			}
			if !seen[u.RegionKey()] {
				seen[u.RegionKey()] = true
				updates = append(updates, u)
			}
		}
	}
	if len(updates) == 0 {
		return nil, "no access sites"
	}
	ch.family = familyNames(updates)

	// Confirm every static verdict semantically before spending a
	// trace replay on the candidate. Self-pairs matter: a single static
	// update races with its own dynamic instances, so it must commute
	// with itself under independent operand samples.
	for i, a := range updates {
		for j := i; j < len(updates); j++ {
			b := updates[j]
			if i != j && !commute.Overlaps(a, b) {
				// Disjoint footprints: relative order is unobservable,
				// nothing to probe. Overlapping cross-location pairs
				// (one region reads the other's target, like
				// sum=sum+cnt vs cnt=cnt+1) MUST be probed — mutual
				// exclusion alone does not make them order-independent.
				continue
			}
			if err := ev.probePair(a, b); err != nil {
				if errors.Is(err, commute.ErrRefuted) {
					ch.probe = "refuted"
					return nil, fmt.Sprintf("semantic probe refuted commutativity: %v", err)
				}
				ch.probe = "unsupported"
				return nil, fmt.Sprintf("semantic probe cannot model the updates: %v", err)
			}
		}
	}
	ch.probe = "confirmed"

	if ev.locs == nil {
		ev.locs = analysis.Locations(ev.info)
	}
	ps := make([]Placement, 0, len(updates))
	for _, u := range updates {
		cls := ev.locs.LockClassOf(u)
		if cls > 0 {
			mLockClasses.Inc()
		}
		ps = append(ps, Placement{
			Block: u.Block,
			Lo:    u.Lo,
			Hi:    u.Hi,
			Kind:  trace.RangeIsolated,
			Class: cls,
		})
	}
	return ps, ""
}

// isolatedBodies returns every block lexically inside an isolated
// statement of prog.
func isolatedBodies(prog *ast.Program) map[*ast.Block]bool {
	in := map[*ast.Block]bool{}
	var mark func(b *ast.Block)
	mark = func(b *ast.Block) {
		in[b] = true
		for _, s := range b.Stmts {
			for _, nb := range ast.StmtBlocks(s) {
				mark(nb)
			}
		}
	}
	ast.Inspect(prog, func(s ast.Stmt) {
		if is, ok := s.(*ast.IsolatedStmt); ok && !in[is.Body] {
			mark(is.Body)
		}
	})
	return in
}

// probePair runs the semantic order probe on one update pair, caching
// the verdict for the round (the same static regions recur across
// groups and iterations).
func (ev *strategyEvaluator) probePair(a, b commute.Update) error {
	if ev.probed == nil {
		ev.probed = map[[2]commute.Key]error{}
	}
	k := [2]commute.Key{a.RegionKey(), b.RegionKey()}
	if err, ok := ev.probed[k]; ok {
		return err
	}
	err := commute.ProbePair(ev.info, a, b)
	ev.probed[k] = err
	return err
}

// familyNames renders the distinct update families of a candidate's
// regions, sorted, for provenance ("add", "min+max", ...).
func familyNames(updates []commute.Update) string {
	set := map[string]bool{}
	for _, u := range updates {
		set[u.Family.String()] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}
