package repair

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"finishrepair/internal/guard"
	"finishrepair/internal/obs"
)

// runIndexed executes fn(worker, i) for every i in [0, n) on at most
// workers goroutines, handing out indices through a shared atomic
// counter. workers <= 1 (or n <= 1) degenerates to a plain loop on the
// calling goroutine, so the sequential path pays nothing for the
// abstraction and parallel/serial runs share one code path.
func runIndexed(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// placeGroups computes the finish placements for every NS-LCA group of
// one repair round. The per-group placement problems are independent, so
// they run on a worker pool (workers <= 1 is sequential); the results
// are then accumulated strictly in group order — NS-LCA DFS number —
// so the chosen placement set, and therefore the rewritten source, is
// identical for any worker count.
//
// Budget semantics mirror the sequential loop: the first DP-state or
// deadline trip flips a shared degraded flag (groups solved after it
// skip the DP and take the coarse sound placement directly), lifts a
// tripped deadline so the mandatory verification run can still finish,
// and its message is reported as degradedReason — first in group order
// when several workers trip concurrently. User cancellation is not
// degraded; it propagates as err. Which groups still get exact DP
// placements around a trip depends on timing, exactly as it does
// sequentially.
//
// span, when non-nil and the pool is actually parallel, gets one
// "dp-worker" child per worker recording how many groups it solved.
//
// outcomes has one entry per group, in group order, recording that
// group's computed placements, DP effort, and whether the round applied
// them — the raw material of the provenance explain record.
//
// selector, when non-nil, is offered each group's finish placements and
// may substitute an alternative repair (isolated wrapping); it runs in
// the sequential accumulation pass, in group order, so strategy choice
// is identical for any worker count.
func placeGroups(groups []*group, m *guard.Meter, workers int, span *obs.Span, selector func(*group, []Placement) ([]Placement, *strategyChoice)) (placements []Placement, outcomes []groupOutcome, degradedReason string, err error) {
	type result struct {
		ps      []Placement
		info    placeInfo
		err     error
		tripped *guard.BudgetExceededError
	}
	results := make([]result, len(groups))
	var degraded atomic.Bool

	solve := func(i int) {
		g := groups[i]
		r := &results[i]
		if degraded.Load() {
			r.info.Fallback = true
			r.ps, r.err = degradeGroup(g)
			return
		}
		ps, info, serr := placeGroup(g, m)
		r.info = info
		var bx *guard.BudgetExceededError
		if errors.As(serr, &bx) &&
			(bx.Resource == guard.ResourceDPStates || bx.Resource == guard.ResourceDeadline) {
			// Graceful degradation: commit the sound coarse-but-valid
			// placement instead of failing mid-repair. A tripped deadline
			// is lifted so the verification run can complete (the op
			// budget keeps it bounded).
			r.tripped = bx
			if bx.Resource == guard.ResourceDeadline {
				m.Lift(guard.ResourceDeadline)
			}
			degraded.Store(true)
			r.info.Fallback = true
			r.ps, r.err = degradeGroup(g)
			return
		}
		r.ps, r.err = ps, serr
	}

	nw := workers
	if nw > len(groups) {
		nw = len(groups)
	}
	var wspans []*obs.Span
	var wcounts []int64
	if nw > 1 {
		wspans = make([]*obs.Span, nw)
		wcounts = make([]int64, nw)
		for w := range wspans {
			wspans[w] = span.Child("dp-worker").SetInt("worker", int64(w))
		}
	}
	runIndexed(len(groups), nw, func(w, i int) {
		if wcounts != nil {
			wcounts[w]++
		}
		// Protect inside the worker: a contained panic must surface as
		// this group's error, not crash the process.
		if perr := guard.Protect("dp-place", func() error { solve(i); return nil }); perr != nil {
			results[i].err = perr
		}
	})
	for w, ws := range wspans {
		ws.SetInt("groups", wcounts[w]).End()
	}

	// Deterministic accumulation in group order. Paper §6 steps 3(d)-(f):
	// placements inserted for an earlier NS-LCA can fix later groups'
	// races, so a group's placements are accepted only when identical to
	// or disjoint from those already chosen; skipped groups are
	// re-examined by the next detection round.
	chosen := make(map[Placement]bool)
	overlaps := func(p Placement) bool {
		for c := range chosen {
			if c.Block == p.Block && p.Lo <= c.Hi && c.Lo <= p.Hi && c != p {
				return true
			}
		}
		return false
	}
	outcomes = make([]groupOutcome, len(groups))
	for i := range results {
		r := &results[i]
		o := &outcomes[i]
		o.g = groups[i]
		o.ps = r.ps
		o.info = r.info
		mDPStatesPerGroup.Observe(r.info.States)
		if r.tripped != nil && degradedReason == "" {
			mDegraded.Inc()
			degradedReason = r.tripped.Error()
		}
		if r.err != nil {
			if err == nil {
				err = r.err
			}
			o.note = r.err.Error()
			continue
		}
		if selector != nil && len(r.ps) > 0 {
			r.ps, o.choice = selector(groups[i], r.ps)
		}
		// The DP maps every dynamic finish block to a static range, so the
		// instances of a loop body collapse onto one placement.
		r.ps = uniquePlacements(r.ps)
		o.ps = r.ps
		conflict := false
		for _, p := range r.ps {
			if !chosen[p] && overlaps(p) {
				conflict = true
				break
			}
		}
		if conflict {
			// Paper §6 steps 3(d)-(f): deferred to the next detection round.
			o.note = "placements overlap an earlier group's; deferred to next round"
			continue
		}
		o.applied = len(r.ps) > 0
		for _, p := range r.ps {
			if !chosen[p] {
				chosen[p] = true
				placements = append(placements, p)
			}
		}
	}
	if err != nil {
		return nil, outcomes, degradedReason, err
	}
	return placements, outcomes, degradedReason, nil
}

// uniquePlacements drops repeated placements in place, keeping each
// first occurrence in order. The distinct placements are static ranges,
// so the scan of out stays short.
func uniquePlacements(ps []Placement) []Placement {
	out := ps[:0]
	for _, p := range ps {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}
