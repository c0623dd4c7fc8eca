// Package repair implements the paper's contribution: test-driven
// insertion of finish statements that eliminate the data races observed
// on a test input while maximizing parallelism and respecting the lexical
// scope of the input program.
//
// The pipeline (paper §3, Fig. 6):
//
//  1. detect races on the canonical depth-first execution (package race);
//  2. group races by the NS-LCA of their source and sink steps;
//  3. per NS-LCA, reduce the subtree to a dependence DAG over the
//     non-scope children (§5.1) and run the dynamic-programming optimal
//     finish placement (Algorithm 1, with the VALID static-scope check of
//     Algorithm 2 and the FIND extraction of Algorithm 3);
//  4. map each dynamic placement to the highest legal S-DPST insertion
//     point and from there to an AST (block, statement-range) rewrite
//     (§6);
//  5. re-run detection and iterate until race-free.
package repair

import (
	"fmt"
	"math"

	"finishrepair/internal/guard"
)

// Problem is the abstract optimal-finish-placement instance of §5.2: a
// DAG over vertices 0..N-1 (ordered left to right) where every edge
// (x, y) has x < y, vertex execution times T, and a static-validity
// predicate for candidate finish blocks.
type Problem struct {
	N     int
	T     []int64  // execution time of each vertex, never negative
	Async []bool   // whether vertex i is an async node
	Edges [][2]int // dependence edges (races), x < y
	// Valid reports whether a finish enclosing exactly vertices s..e is
	// statically expressible (Algorithm 2 / scope rules). Nil means
	// always valid. Solve memoizes it: each (s, e) is asked at most once,
	// so Valid must give the same answer for the whole Solve call. Most
	// questions come from splits that need a finish around s..e; the
	// serial-run pass also asks about blocks that no split needs.
	Valid func(s, e int) bool
	// Meter, when set, charges explored DP states against the pipeline's
	// shared budget and checks cancellation between cells; Solve returns
	// the meter's typed error mid-placement when a limit trips.
	Meter *guard.Meter
}

// FinishBlock is one (s, e) element of the FinishSet: a finish enclosing
// vertices s..e.
type FinishBlock struct {
	S, E int
}

// Solution is the DP result.
type Solution struct {
	// Cost is the optimal completion time COST(G) of the block 0..N-1.
	Cost int64
	// Finishes is the FinishSet extracted by Algorithm 3, outermost
	// first.
	Finishes []FinishBlock
	// States counts the (i, k, j) partition candidates the DP evaluated —
	// the work metric surfaced by the tracer and the repair.dp_states
	// counter — over the Vertices vertices left once Solve merged the
	// serial runs.
	States   int64
	Vertices int
}

const inf = int64(math.MaxInt64 / 4)

// States of the VALID memo.
const (
	validUnknown uint8 = iota
	validYes
	validNo
)

// Solve runs the dynamic program of Algorithm 1 and extracts the finish
// set with Algorithm 3. It returns an error when some dependence cannot
// be satisfied by any statically valid finish placement.
//
// Solve first merges every serial run of p into one vertex (serialRuns)
// and runs the kernel, solveDense, on the smaller problem. The merge is
// exact (DESIGN.md §16): the cost, the finish list (order included) and
// whether the problem is satisfiable are those of solveDense on p.
// Finishes and an *UnsatisfiableError name vertices of p; States,
// Vertices and the Meter's charge count the merged problem.
func Solve(p *Problem) (*Solution, error) {
	n := p.N
	// Without VALID every vertex starts a valid block, so nothing merges.
	if n == 0 || p.Valid == nil || len(p.T) != n || len(p.Async) != n {
		return solveDense(p, nil)
	}
	vm := &validMemo{n: n, valid: p.Valid, memo: make([]uint8, n*n)}
	starts := serialRuns(p, vm)
	if starts == nil {
		return solveDense(p, vm.memo)
	}
	return solveMerged(p, vm, starts)
}

// solveMerged runs the kernel on p with every serial run merged: vertex
// r of the merged problem is the run starts[r]..last(r), and its VALID
// reads vm at the run's ends.
func solveMerged(p *Problem, vm *validMemo, starts []int) (*Solution, error) {
	n, nc := p.N, len(starts)
	last := func(r int) int {
		if r+1 < nc {
			return starts[r+1] - 1
		}
		return n - 1
	}
	c := &Problem{
		N:     nc,
		T:     make([]int64, nc),
		Async: make([]bool, nc),
		Edges: make([][2]int, len(p.Edges)),
		Valid: func(i, k int) bool { return vm.ask(starts[i], last(k)) },
		Meter: p.Meter,
	}
	run := make([]int, n)
	for r, s := range starts {
		c.Async[r] = p.Async[s]
		for v := s; v <= last(r); v++ {
			c.T[r] += p.T[v]
			run[v] = r
		}
	}
	for i, e := range p.Edges {
		c.Edges[i] = [2]int{run[e[0]], run[e[1]]}
	}
	sol, err := solveDense(c, nil)
	if u, ok := err.(*UnsatisfiableError); ok {
		u.I, u.J = starts[u.I], last(u.J)
	}
	if err != nil {
		return nil, err
	}
	for i, f := range sol.Finishes {
		sol.Finishes[i] = FinishBlock{S: starts[f.S], E: last(f.E)}
	}
	return sol, nil
}

// serialRuns returns the first vertex of every maximal serial run of p,
// in order, or nil when no two vertices merge. A serial run is a
// stretch of consecutive vertices that are all non-async and touch no
// edge, with no valid block starting after its first vertex or ending
// before its last. The VALID answers it needs go into vm.
func serialRuns(p *Problem, vm *validMemo) []int {
	n := p.N
	touched := make([]bool, n)
	for _, e := range p.Edges {
		touched[e[0]], touched[e[1]] = true, true
	}
	var joins []int // vertices that continue the run of the one before
	for v := 1; v < n; v++ {
		if p.Async[v-1] || p.Async[v] || touched[v-1] || touched[v] || vm.endsAt(v-1) || vm.startsAt(v) {
			continue
		}
		joins = append(joins, v)
	}
	if joins == nil {
		return nil
	}
	starts := make([]int, 0, n-len(joins))
	for v := 0; v < n; v++ {
		if len(joins) > 0 && joins[0] == v {
			joins = joins[1:]
			continue
		}
		starts = append(starts, v)
	}
	return starts
}

// validMemo asks Valid at most once per block. memo is the kernel's n×n
// row-major table (validUnknown until block s..e is asked), so
// solveDense can start from it.
type validMemo struct {
	n     int
	valid func(s, e int) bool
	memo  []uint8
}

func (m *validMemo) ask(s, e int) bool {
	v := &m.memo[s*m.n+e]
	if *v == validUnknown {
		*v = validNo
		if m.valid(s, e) {
			*v = validYes
		}
	}
	return *v == validYes
}

// startsAt reports whether some valid block starts at vertex s.
func (m *validMemo) startsAt(s int) bool {
	for e := s; e < m.n; e++ {
		if m.ask(s, e) {
			return true
		}
	}
	return false
}

// endsAt reports whether some valid block ends at vertex e.
func (m *validMemo) endsAt(e int) bool {
	for s := e; s >= 0; s-- {
		if m.ask(s, e) {
			return true
		}
	}
	return false
}

// solveDense is the kernel of Solve: Algorithm 1 over every vertex of p.
// memo, when not nil, is p's VALID memo in validMemo's layout, possibly
// partly filled; nil starts an empty one.
//
// Every table is n×n and row-major, so the k-loop of cell (i, j) reads
// only contiguous runs: the left halves opt/est[i][i..j-1] and the
// crossing bounds reach[i][i..j-1] from row i, the right halves
// opt/est[i+1..j][j] from row j of the transposed copies.
func solveDense(p *Problem, memo []uint8) (*Solution, error) {
	n := p.N
	if n == 0 {
		return &Solution{}, nil
	}
	if len(p.T) != n || len(p.Async) != n {
		return nil, fmt.Errorf("repair: inconsistent problem arrays")
	}
	valid := p.Valid
	if valid == nil {
		valid = func(int, int) bool { return true }
	}

	reach := newReach(n, p.Edges)
	if memo == nil {
		memo = make([]uint8, n*n) // VALID(i, k), filled on first use
	}
	opt := make([]int64, n*n)
	optT := make([]int64, n*n) // optT[j*n+i] = opt[i*n+j]
	est := make([]int64, n*n)  // est[i][j]: earliest start of j+1 given block i..j
	estT := make([]int64, n*n)
	part := make([]int32, n*n)
	fin := make([]bool, n*n)

	for i := 0; i < n; i++ {
		d := i*n + i
		opt[d], optT[d] = p.T[i], p.T[i]
		if !p.Async[i] {
			est[d], estT[d] = p.T[i], p.T[i]
		}
	}

	sol := &Solution{Vertices: n}
	for s := 2; s <= n; s++ {
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			sol.States += int64(j - i)
			// Budget/cancellation check once per cell: the DP-state limit
			// and the deadline both trip mid-placement, letting the repair
			// loop degrade to the coarse placement instead of crashing or
			// running away on huge dependence graphs.
			if err := p.Meter.AddDPStates(int64(j - i)); err != nil {
				return nil, err
			}
			// Split d puts i..i+d left and i+d+1..j right.
			lo, hi := i*n+i, i*n+j
			optL, estL := opt[lo:hi], est[lo:hi]
			reachL, memoL := reach[lo:hi], memo[lo:hi]
			// Cut to len(optL), which drops the loop's bounds checks.
			optR, estR := optT[j*n+i+1:][:len(optL)], estT[j*n+i+1:][:len(optL)]
			cmin := inf
			bestD, bestF := -1, false
			bestE := int64(0)
			for d := range optL {
				var c, e int64
				var f bool
				if int(reachL[d]) <= j {
					// A dependence crosses the partition: a finish around
					// i..i+d is required; it must be statically valid.
					v := memoL[d]
					if v == validUnknown {
						v = validNo
						if valid(i, i+d) {
							v = validYes
						}
						memoL[d] = v
					}
					if v != validYes {
						continue
					}
					c = optL[d] + optR[d]
					f = true
					e = optL[d] + estR[d]
				} else {
					c = max(optL[d], estL[d]+optR[d])
					e = estL[d] + estR[d]
				}
				if c < cmin {
					cmin, bestD, bestF, bestE = c, d, f, e
				}
			}
			if bestD < 0 {
				return nil, &UnsatisfiableError{I: i, J: j}
			}
			ij, ji := i*n+j, j*n+i
			opt[ij], optT[ji] = cmin, cmin
			est[ij], estT[ji] = bestE, bestE
			part[ij] = int32(i + bestD)
			fin[ij] = bestF
		}
	}

	sol.Cost = opt[n-1]
	// Algorithm 3 (with the split corrected to begin..p / p+1..end; the
	// paper's FIND(p, end) double-counts vertex p).
	var find func(begin, end int)
	find = func(begin, end int) {
		if begin >= end {
			return
		}
		pnt := int(part[begin*n+end])
		if fin[begin*n+end] {
			sol.Finishes = append(sol.Finishes, FinishBlock{S: begin, E: pnt})
		}
		find(begin, pnt)
		find(pnt+1, end)
	}
	find(0, n-1)
	return sol, nil
}

// newReach builds the crossing table of Solve: reach[i*n+k] (i <= k) is
// the smallest sink y > k of any edge whose source lies in i..k, or n
// when there is none. An edge leaves i..k into k+1..j exactly when
// reach[i*n+k] <= j. Each edge (x, y) first marks reach[x*n+y-1] = y;
// row i is then a suffix minimum of its marks (the smallest sink y > k
// of an edge leaving i) folded with row i+1.
func newReach(n int, edges [][2]int) []int32 {
	reach := make([]int32, n*n)
	for k := range reach {
		reach[k] = int32(n)
	}
	for _, e := range edges {
		if x, y := e[0], e[1]; x < y {
			reach[x*n+y-1] = int32(y)
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := reach[i*n : i*n+n]
		own := int32(n)
		for k := n - 1; k >= i; k-- {
			own = min(own, row[k])
			row[k] = own
			if k > i {
				row[k] = min(own, reach[(i+1)*n+k])
			}
		}
	}
	return reach
}

// UnsatisfiableError reports a subproblem whose crossing dependences have
// no statically valid finish placement.
type UnsatisfiableError struct {
	I, J int
}

// Error implements the error interface.
func (e *UnsatisfiableError) Error() string {
	return fmt.Sprintf("repair: no statically valid finish placement for vertices %d..%d", e.I, e.J)
}
