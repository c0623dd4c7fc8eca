package analysis

import (
	"fmt"

	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/token"
)

// Candidate is one static race candidate: an unordered statement pair
// in the MHP relation whose effect summaries conflict. A == B is
// possible (an async body in a loop racing with its own other
// instances).
type Candidate struct {
	A, B       int // statement IDs, A <= B
	APos, BPos token.Pos
	AFunc      string // enclosing function ("" for a global initializer)
	BFunc      string
	Loc        string // lowest conflicting abstract location, rendered
	Kind       string // "W/W" or "R/W"
}

// String renders the candidate for reports.
func (c Candidate) String() string {
	return fmt.Sprintf("%s (%s) and %s (%s) on %s [%s]", c.APos, c.AFunc, c.BPos, c.BFunc, c.Loc, c.Kind)
}

// buildCandidates intersects the MHP relation with the effect
// summaries.
func (r *Result) buildCandidates() {
	n := len(r.stmts)
	for i := 0; i < n; i++ {
		ei := r.eff[i]
		if ei.empty() {
			continue
		}
		for j := i; j < n; j++ {
			if !r.mhp[i].has(j) {
				continue
			}
			// Both statements inside isolated bodies whose locks exclude
			// each other (either class 0's global lock, or one shared
			// nonzero class) cannot overlap. The dynamic detectors
			// suppress exactly these pairs (both access sites isolated
			// with excluding classes), so dropping them here preserves
			// the static-covers-dynamic guarantee; bodies of different
			// nonzero classes run concurrently and stay candidates.
			if r.isod.has(i) && r.isod.has(j) &&
				(r.isoClass[i] == 0 || r.isoClass[j] == 0 || r.isoClass[i] == r.isoClass[j]) {
				continue
			}
			ej := r.eff[j]
			loc, kind := conflict(ei, ej)
			if loc < 0 {
				continue
			}
			r.cands = append(r.cands, Candidate{
				A: i, B: j,
				APos: r.stmts[i].stmt.Pos(), BPos: r.stmts[j].stmt.Pos(),
				AFunc: fnName(r.stmts[i].fn), BFunc: fnName(r.stmts[j].fn),
				Loc: r.LocationName(loc), Kind: kind,
			})
		}
	}
	r.covered = make([]bool, len(r.cands))
}

func fnName(fn *ast.FuncDecl) string {
	if fn == nil {
		return "globals"
	}
	return fn.Name
}

// conflict returns the lowest location where the two effects conflict
// (write/write or read/write), or -1. Kind reports which.
func conflict(a, b effect) (int, string) {
	best, kind := -1, ""
	scan := func(x, y bitset, k string) {
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		for w := 0; w < n; w++ {
			if m := x[w] & y[w]; m != 0 {
				loc := w << 6
				for m&1 == 0 {
					m >>= 1
					loc++
				}
				if best < 0 || loc < best {
					best, kind = loc, k
				}
			}
		}
	}
	scan(a.writes, b.writes, "W/W")
	scan(a.writes, b.reads, "R/W")
	scan(a.reads, b.writes, "R/W")
	return best, kind
}

// Candidates returns the static race-candidate set in deterministic
// (statement-ID) order.
func (r *Result) Candidates() []Candidate { return r.cands }

// stmtSetOf maps a (resolved) S-DPST node to the set of statement IDs
// whose execution the node may represent: the union of all() over the
// statements the node's static coordinates cover. ok is false for
// loop-header pseudo-steps (StmtLo == -1) and other nodes without usable
// coordinates; callers must then be conservative.
func (r *Result) stmtSetOf(n *dpst.Node) (bitset, bool) {
	if n == nil {
		return nil, false
	}
	n = n.Resolve()
	if n.OwnerBlock != nil && n.StmtLo >= 0 && n.StmtHi < len(n.OwnerBlock.Stmts) {
		set := newBitset(len(r.stmts))
		for i := n.StmtLo; i <= n.StmtHi; i++ {
			id, ok := r.byStmt[n.OwnerBlock.Stmts[i]]
			if !ok {
				return nil, false
			}
			set.or(r.all[id])
		}
		return set, true
	}
	return nil, false
}

// Resolvable reports whether the node maps to a concrete statement set
// — i.e. whether Covers/MayRunInParallel answer from the analysis
// rather than falling through to the conservative default. Tests use it
// to prove the soundness cross-check is non-vacuous.
func (r *Result) Resolvable(n *dpst.Node) bool {
	_, ok := r.stmtSetOf(n)
	return ok
}

// MayRunInParallel reports whether the statements represented by the
// two S-DPST nodes may run in parallel statically. Unknown nodes are
// conservatively parallel, so using this as a filter can only suppress
// provably-serial work.
func (r *Result) MayRunInParallel(src, dst *dpst.Node) bool {
	sa, oka := r.stmtSetOf(src)
	sb, okb := r.stmtSetOf(dst)
	if !oka || !okb {
		return true
	}
	par := false
	sa.forEach(func(i int) {
		if !par && r.mhp[i].intersects(sb) {
			par = true
		}
	})
	return par
}

// Covers reports whether a dynamic race between the two S-DPST nodes is
// explained by some static candidate: a candidate whose endpoints fall
// one in each node's statement set (or both in either, for self-races).
// Unknown nodes are conservatively covered.
func (r *Result) Covers(src, dst *dpst.Node) bool {
	sa, oka := r.stmtSetOf(src)
	sb, okb := r.stmtSetOf(dst)
	if !oka || !okb {
		return true
	}
	for _, c := range r.cands {
		if (sa.has(c.A) && sb.has(c.B)) || (sb.has(c.A) && sa.has(c.B)) {
			return true
		}
	}
	return false
}

// MarkCovered records that a dynamic race between the two nodes was
// observed, marking every candidate it can explain as dynamically
// exercised. Unknown nodes mark nothing.
func (r *Result) MarkCovered(src, dst *dpst.Node) {
	sa, oka := r.stmtSetOf(src)
	sb, okb := r.stmtSetOf(dst)
	if !oka || !okb {
		return
	}
	for i, c := range r.cands {
		if (sa.has(c.A) && sb.has(c.B)) || (sb.has(c.A) && sa.has(c.B)) {
			r.covered[i] = true
		}
	}
}

// UncoveredCandidates returns the candidates no dynamic race has
// touched since Analyze — the coverage-gap report of hjrepair -vet.
func (r *Result) UncoveredCandidates() []Candidate {
	var out []Candidate
	for i, c := range r.cands {
		if !r.covered[i] {
			out = append(out, c)
		}
	}
	return out
}
