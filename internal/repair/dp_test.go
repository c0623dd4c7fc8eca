package repair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"finishrepair/internal/guard"
)

// solveReference is Algorithm 1 transcribed directly: VALID asked on
// every crossing split, crossings answered from 2-D prefix sums over the
// edge matrix, and every table read row-major. It is the oracle for
// Solve's memoized, transposed kernel.
func solveReference(p *Problem) (*Solution, error) {
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

	pre := newRefEdgePrefix(n, p.Edges)

	idx := func(i, j int) int { return i*n + j }
	opt := make([]int64, n*n)
	est := make([]int64, n*n)
	part := make([]int, n*n)
	fin := make([]bool, n*n)

	for i := 0; i < n; i++ {
		opt[idx(i, i)] = p.T[i]
		part[idx(i, i)] = i
		if p.Async[i] {
			est[idx(i, i)] = 0
		} else {
			est[idx(i, i)] = p.T[i]
		}
	}

	sol := &Solution{Vertices: n}
	for s := 2; s <= n; s++ {
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			cmin := inf
			bestP, bestF := -1, false
			bestE := int64(0)
			sol.States += int64(j - i)
			if err := p.Meter.AddDPStates(int64(j - i)); err != nil {
				return nil, err
			}
			for k := i; k < j; k++ {
				var c, e int64
				var f bool
				if pre.cross(i, k, j) {
					if !valid(i, k) {
						continue
					}
					c = opt[idx(i, k)] + opt[idx(k+1, j)]
					f = true
					e = opt[idx(i, k)] + est[idx(k+1, j)]
				} else {
					c = max(opt[idx(i, k)], est[idx(i, k)]+opt[idx(k+1, j)])
					f = false
					e = est[idx(i, k)] + est[idx(k+1, j)]
				}
				if c < cmin {
					cmin, bestP, bestF, bestE = c, k, f, e
				}
			}
			if bestP < 0 {
				return nil, &UnsatisfiableError{I: i, J: j}
			}
			opt[idx(i, j)] = cmin
			part[idx(i, j)] = bestP
			fin[idx(i, j)] = bestF
			est[idx(i, j)] = bestE
		}
	}

	sol.Cost = opt[idx(0, n-1)]
	var find func(begin, end int)
	find = func(begin, end int) {
		if begin >= end {
			return
		}
		pnt := part[idx(begin, end)]
		if fin[idx(begin, end)] {
			sol.Finishes = append(sol.Finishes, FinishBlock{S: begin, E: pnt})
		}
		find(begin, pnt)
		find(pnt+1, end)
	}
	find(0, n-1)
	return sol, nil
}

// refEdgePrefix answers rectangle-emptiness queries over the edge set.
type refEdgePrefix struct {
	n   int
	sum []int32 // (n+1)x(n+1) prefix sums of the 0/1 edge matrix
}

func newRefEdgePrefix(n int, edges [][2]int) *refEdgePrefix {
	w := n + 1
	sum := make([]int32, w*w)
	for _, e := range edges {
		x, y := e[0], e[1]
		sum[(x+1)*w+(y+1)]++
	}
	for r := 1; r < w; r++ {
		for c := 1; c < w; c++ {
			sum[r*w+c] += sum[(r-1)*w+c] + sum[r*w+c-1] - sum[(r-1)*w+c-1]
		}
	}
	return &refEdgePrefix{n: n, sum: sum}
}

// cross reports whether any edge goes from [i..k] into [k+1..j].
func (p *refEdgePrefix) cross(i, k, j int) bool {
	w := p.n + 1
	rect := p.sum[(k+1)*w+(j+1)] - p.sum[i*w+(j+1)] - p.sum[(k+1)*w+(k+1)] + p.sum[i*w+(k+1)]
	return rect > 0
}

// randomScopes draws a nested scope structure over 0..n-1 and returns the
// VALID predicate it induces, shaped like computeWrap's: a block is
// expressible when it is a run of consecutive children of one scope, and
// a loop scope only admits all of its children at once.
func randomScopes(rng *rand.Rand, n int) func(s, e int) bool {
	ok := make(map[[2]int]bool)
	var build func(lo, hi int)
	build = func(lo, hi int) {
		// Children of the scope lo..hi: consecutive runs of vertices.
		var kids [][2]int
		for a := lo; a <= hi; {
			b := a + rng.Intn(hi-a+1)
			if a == lo && b == hi && hi > lo {
				b = lo + rng.Intn(hi-lo) // a scope has at least two children
			}
			kids = append(kids, [2]int{a, b})
			a = b + 1
		}
		loop := len(kids) > 1 && rng.Intn(4) == 0
		for x := range kids {
			for y := x; y < len(kids); y++ {
				if loop && !(x == 0 && y == len(kids)-1) {
					continue
				}
				ok[[2]int{kids[x][0], kids[y][1]}] = true
			}
		}
		for _, k := range kids {
			if k[0] < k[1] {
				build(k[0], k[1])
			}
		}
	}
	build(0, n-1)
	return func(s, e int) bool { return ok[[2]int{s, e}] }
}

// randomProblem draws one placement instance: n in [1, maxN], random
// times, async flags and edge density, and a VALID predicate that is nil,
// a random table, or scope-shaped.
func randomProblem(rng *rand.Rand, maxN int) *Problem {
	n := 1 + rng.Intn(maxN)
	p := &Problem{N: n, T: make([]int64, n), Async: make([]bool, n)}
	pAsync := rng.Float64()
	for i := 0; i < n; i++ {
		p.T[i] = int64(rng.Intn(40))
		p.Async[i] = rng.Float64() < pAsync
	}
	density := []float64{0, 0.02, 0.1, 0.3, 0.8}[rng.Intn(5)]
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if rng.Float64() < density {
				p.Edges = append(p.Edges, [2]int{x, y})
			}
		}
	}
	rng.Shuffle(len(p.Edges), func(a, b int) { p.Edges[a], p.Edges[b] = p.Edges[b], p.Edges[a] })
	switch rng.Intn(4) {
	case 0: // nil: always valid
	case 1, 2:
		pValid := []float64{0.05, 0.3, 0.7, 0.95}[rng.Intn(4)]
		table := make([]bool, n*n)
		for k := range table {
			table[k] = rng.Float64() < pValid
		}
		p.Valid = func(s, e int) bool { return table[s*n+e] }
	case 3:
		p.Valid = randomScopes(rng, n)
	}
	return p
}

// TestSolveMatchesReference checks Solve's kernel, solveDense, against
// solveReference: the same cost, finish set (order included), state
// count and error — the same unsatisfiable block, the same budget trip —
// and VALID asked at most once per block, for exactly the blocks the
// reference asks about. Solve's serial-run merge changes the state
// count and asks about more blocks; TestSolveMatchesDenseKernel checks
// it against the kernel.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var solved, unsat, tripped int
	for trial := 0; trial < 600; trial++ {
		p := randomProblem(rng, 64)
		var maxStates int64
		if rng.Intn(4) == 0 {
			maxStates = 1 + rng.Int63n(int64(p.N*p.N*p.N/6+1))
		}
		meter := func() *guard.Meter {
			if maxStates == 0 {
				return nil
			}
			return guard.NewMeter(context.Background(), guard.Budget{MaxDPStates: maxStates})
		}
		valid := p.Valid
		if valid == nil {
			valid = func(int, int) bool { return true }
		}

		ref := *p
		refAsked := make(map[[2]int]bool)
		ref.Valid = func(s, e int) bool { refAsked[[2]int{s, e}] = true; return valid(s, e) }
		ref.Meter = meter()
		want, wantErr := solveReference(&ref)

		asked := make(map[[2]int]int)
		p.Valid = func(s, e int) bool { asked[[2]int{s, e}]++; return valid(s, e) }
		p.Meter = meter()
		got, gotErr := solveDense(p, nil)

		for b, c := range asked {
			if c > 1 {
				t.Fatalf("trial %d: Valid(%d, %d) asked %d times", trial, b[0], b[1], c)
			}
		}
		if len(asked) != len(refAsked) {
			t.Fatalf("trial %d: Valid asked for %d blocks, reference for %d", trial, len(asked), len(refAsked))
		}
		for b := range refAsked {
			if asked[b] == 0 {
				t.Fatalf("trial %d: Valid(%d, %d) never asked", trial, b[0], b[1])
			}
		}

		var wantU, gotU *UnsatisfiableError
		var wantB, gotB *guard.BudgetExceededError
		switch {
		case errors.As(wantErr, &wantU):
			unsat++
			if !errors.As(gotErr, &gotU) || *gotU != *wantU {
				t.Fatalf("trial %d: error %v, want %v", trial, gotErr, wantErr)
			}
		case errors.As(wantErr, &wantB):
			tripped++
			if !errors.As(gotErr, &gotB) || *gotB != *wantB {
				t.Fatalf("trial %d: error %v, want %v", trial, gotErr, wantErr)
			}
		case wantErr != nil:
			t.Fatalf("trial %d: reference failed: %v", trial, wantErr)
		case gotErr != nil:
			t.Fatalf("trial %d: %v, reference solved it", trial, gotErr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("trial %d (n=%d): got %+v, want %+v", trial, p.N, got, want)
		case len(got.Finishes) > 0:
			solved++
		}
	}
	t.Logf("%d solved with finishes, %d unsatisfiable, %d budget-tripped", solved, unsat, tripped)
	if solved < 100 || unsat < 20 || tripped < 20 {
		t.Fatal("the generator no longer covers every outcome")
	}
}

// TestReachTable checks the crossing table against its definition on
// random edge sets, duplicates included.
func TestReachTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 24)
		n := p.N
		if len(p.Edges) > 0 && rng.Intn(2) == 0 {
			p.Edges = append(p.Edges, p.Edges[rng.Intn(len(p.Edges))])
		}
		reach := newReach(n, p.Edges)
		for i := 0; i < n; i++ {
			for k := i; k < n; k++ {
				want := n
				for _, e := range p.Edges {
					if i <= e[0] && e[0] <= k && e[1] > k && e[1] < want {
						want = e[1]
					}
				}
				if got := int(reach[i*n+k]); got != want {
					t.Fatalf("trial %d: reach[%d][%d] = %d, want %d (edges %v)", trial, i, k, got, want, p.Edges)
				}
			}
		}
	}
}

// bruteForce enumerates every properly nested family of valid blocks
// over 0..n-1 that satisfies the dependences and returns the minimum
// cost, or false when no family does.
func bruteForce(p *Problem) (int64, bool) {
	var blocks []FinishBlock
	for s := 0; s < p.N; s++ {
		for e := s; e < p.N; e++ {
			if p.Valid == nil || p.Valid(s, e) {
				blocks = append(blocks, FinishBlock{S: s, E: e})
			}
		}
	}
	nested := func(a, b FinishBlock) bool {
		return a.E < b.S || b.E < a.S || (a.S <= b.S && b.E <= a.E) || (b.S <= a.S && a.E <= b.E)
	}
	best, found := int64(0), false
	var rec func(i int, chosen []FinishBlock)
	rec = func(i int, chosen []FinishBlock) {
		if i == len(blocks) {
			if !Satisfies(p, chosen) {
				return
			}
			c, err := Evaluate(p, chosen)
			if err != nil {
				panic(err) // chosen is properly nested by construction
			}
			if !found || c < best {
				best, found = c, true
			}
			return
		}
		rec(i+1, chosen)
		for _, c := range chosen {
			if !nested(c, blocks[i]) {
				return
			}
		}
		rec(i+1, append(chosen, blocks[i]))
	}
	rec(0, nil)
	return best, found
}

// subProblem restricts p to vertices lo..hi, renumbered from 0: the
// edges inside the block and VALID shifted to match.
func subProblem(p *Problem, lo, hi int) *Problem {
	sub := &Problem{N: hi - lo + 1, T: p.T[lo : hi+1], Async: p.Async[lo : hi+1]}
	for _, e := range p.Edges {
		if lo <= e[0] && e[1] <= hi {
			sub.Edges = append(sub.Edges, [2]int{e[0] - lo, e[1] - lo})
		}
	}
	if p.Valid != nil {
		sub.Valid = func(s, e int) bool { return p.Valid(s+lo, e+lo) }
	}
	return sub
}

// Property: on small random instances, Algorithm 1 attains the
// brute-force optimum over valid finish sets, its reported cost equals
// the evaluation of its own finish set, and that set is valid and
// satisfies all dependences. When no valid set satisfies them, Solve
// reports the problem unsatisfiable, and the block I..J it names has no
// valid finish set of its own.
//
// The converse does not hold: Solve gives up on the whole problem as
// soon as one block I..J has no valid split, even when a finish set
// that never splits I..J exists (placeGroup then takes the sound
// fallback). The test counts those problems but does not fail on them.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var solved, unsat, incomplete int
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng, 6)
		want, ok := bruteForce(p)
		sol, err := Solve(p)
		var ue *UnsatisfiableError
		if errors.As(err, &ue) {
			if _, subOK := bruteForce(subProblem(p, ue.I, ue.J)); subOK {
				t.Fatalf("trial %d: Solve reported %v, but brute force satisfies that block (problem %+v)", trial, err, p)
			}
			if ok {
				incomplete++
			} else {
				unsat++
			}
			continue
		}
		if !ok {
			t.Fatalf("trial %d: brute force found no valid set, Solve returned %+v, %v (problem %+v)", trial, sol, err, p)
		}
		if err != nil {
			t.Fatalf("trial %d: %v, brute force found cost %d (problem %+v)", trial, err, want, p)
		}
		solved++
		if !Satisfies(p, sol.Finishes) {
			t.Fatalf("trial %d: solution %v violates dependences %v", trial, sol.Finishes, p.Edges)
		}
		for _, f := range sol.Finishes {
			if p.Valid != nil && !p.Valid(f.S, f.E) {
				t.Fatalf("trial %d: solution uses invalid block %v", trial, f)
			}
		}
		got, err := Evaluate(p, sol.Finishes)
		if err != nil {
			t.Fatalf("trial %d: evaluate: %v", trial, err)
		}
		if got != sol.Cost {
			t.Fatalf("trial %d: Evaluate(sol)=%d but Cost=%d (%+v, finishes %v)",
				trial, got, sol.Cost, p, sol.Finishes)
		}
		if sol.Cost != want {
			t.Fatalf("trial %d: Solve=%d, brute force=%d (%+v)", trial, sol.Cost, want, p)
		}
	}
	t.Logf("%d solved, %d unsatisfiable, %d satisfiable but rejected", solved, unsat, incomplete)
	if solved < 100 || unsat < 20 {
		t.Fatalf("only %d solved and %d unsatisfiable problems; the generator no longer covers both outcomes", solved, unsat)
	}
}
