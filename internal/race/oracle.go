package race

import (
	"sync"

	"finishrepair/internal/dpst"
)

// ----------------------------------------------------------------------
// DPST oracle: Theorem 1 queries, no extra state.

// DPSTOracle decides ordering with NS-LCA queries on the S-DPST
// (Theorem 1): two steps are parallel iff the non-scope child of their
// NS-LCA on the earlier step's side is an async node.
type DPSTOracle struct{}

// NewDPSTOracle returns a stateless S-DPST ordering oracle.
func NewDPSTOracle() *DPSTOracle { return &DPSTOracle{} }

// TaskStart is a no-op.
func (*DPSTOracle) TaskStart(*dpst.Node) {}

// TaskEnd is a no-op.
func (*DPSTOracle) TaskEnd(*dpst.Node) {}

// FinishStart is a no-op.
func (*DPSTOracle) FinishStart(*dpst.Node) {}

// FinishEnd is a no-op.
func (*DPSTOracle) FinishEnd(*dpst.Node) {}

// Tag returns 0; the DPST oracle needs no per-access bookkeeping.
func (*DPSTOracle) Tag() uint64 { return 0 }

// Ordered reports whether prevStep is ordered before curStep.
func (*DPSTOracle) Ordered(_ uint64, prevStep, curStep *dpst.Node) bool {
	return !dpst.Parallel(prevStep, curStep)
}

// Release is a no-op; the oracle has no state.
func (*DPSTOracle) Release() {}

// ----------------------------------------------------------------------
// ESP-Bags oracle: disjoint-set S/P bags over tasks and finishes.

// BagsOracle implements the ESP-Bags structure for terminally-strict
// async-finish parallelism (Raman et al. 2012):
//
//   - when a task A starts, its S-bag is the singleton {A};
//   - when A ends, A's S-bag is merged into the P-bag of A's immediately
//     enclosing finish and marked P (A may run in parallel with whatever
//     executes until that finish joins);
//   - when a finish F ends, F's P-bag is merged into the current task's
//     S-bag and marked S (everything under F is now ordered before the
//     continuation).
//
// An earlier access is ordered before the current execution point iff
// the set holding its task is S-marked. Amortized near-O(1) per query
// via union-find with path compression and union by size.
//
// S-bags and P-bags are distinct union-find elements: element 2*ID is
// node ID's S-bag identity, 2*ID+1 its P-bag identity.
type BagsOracle struct {
	parent []int32
	size   []int32
	isP    []bool

	taskStack   []*dpst.Node
	finishStack []*dpst.Node
}

var bagsPool = sync.Pool{New: func() any { return new(BagsOracle) }}

// NewBagsOracle returns an empty ESP-Bags oracle. The first TaskStart
// (on the tree root) initializes the root task, which also serves as the
// outermost implicit finish. The oracle may come from the reuse pool;
// Release (optional, usually via the owning detector) recycles it.
func NewBagsOracle() *BagsOracle { return bagsPool.Get().(*BagsOracle) }

func sBag(n *dpst.Node) int32 { return int32(2 * n.ID) }
func pBag(n *dpst.Node) int32 { return int32(2*n.ID + 1) }

func (b *BagsOracle) ensure(id int32) {
	for len(b.parent) <= int(id) {
		b.parent = append(b.parent, int32(len(b.parent)))
		b.size = append(b.size, 1)
		b.isP = append(b.isP, false)
	}
}

func (b *BagsOracle) find(x int32) int32 {
	root := x
	for b.parent[root] != root {
		root = b.parent[root]
	}
	for b.parent[x] != root {
		b.parent[x], x = root, b.parent[x]
	}
	return root
}

// union merges the sets of x and y and marks the result P or S.
func (b *BagsOracle) union(x, y int32, p bool) {
	rx, ry := b.find(x), b.find(y)
	if rx == ry {
		b.isP[rx] = p
		return
	}
	if b.size[rx] < b.size[ry] {
		rx, ry = ry, rx
	}
	b.parent[ry] = rx
	b.size[rx] += b.size[ry]
	b.isP[rx] = p
}

// TaskStart handles the start of a task (async instance or the root).
func (b *BagsOracle) TaskStart(n *dpst.Node) {
	b.ensure(pBag(n))
	b.taskStack = append(b.taskStack, n)
	if len(b.taskStack) == 1 {
		// The root task doubles as the outermost implicit finish.
		b.finishStack = append(b.finishStack, n)
	}
}

// TaskEnd merges the ended task's S-bag into the P-bag of its
// immediately enclosing finish.
func (b *BagsOracle) TaskEnd(n *dpst.Node) {
	b.taskStack = b.taskStack[:len(b.taskStack)-1]
	if len(b.taskStack) == 0 {
		return // root task end; detection is over
	}
	ief := b.finishStack[len(b.finishStack)-1]
	b.union(pBag(ief), sBag(n), true)
}

// FinishStart opens a finish scope.
func (b *BagsOracle) FinishStart(n *dpst.Node) {
	b.ensure(pBag(n))
	b.finishStack = append(b.finishStack, n)
}

// FinishEnd merges the finish's P-bag into the current task's S-bag.
func (b *BagsOracle) FinishEnd(n *dpst.Node) {
	b.finishStack = b.finishStack[:len(b.finishStack)-1]
	cur := b.taskStack[len(b.taskStack)-1]
	b.union(sBag(cur), pBag(n), false)
}

// Tag returns the current task's node ID (its S-bag is element 2*ID).
func (b *BagsOracle) Tag() uint64 {
	return uint64(b.taskStack[len(b.taskStack)-1].ID)
}

// Ordered reports whether the earlier access by prevTag's task is ordered
// before the current step: true iff the set holding the task is S-marked.
func (b *BagsOracle) Ordered(prevTag uint64, _, _ *dpst.Node) bool {
	return !b.isP[b.find(int32(2*prevTag))]
}

// Release resets the oracle and returns its union-find arrays and stacks
// to the reuse pool; the oracle must not be used afterwards.
func (b *BagsOracle) Release() {
	b.parent = b.parent[:0]
	b.size = b.size[:0]
	b.isP = b.isP[:0]
	clear(b.taskStack)
	b.taskStack = b.taskStack[:0]
	clear(b.finishStack)
	b.finishStack = b.finishStack[:0]
	bagsPool.Put(b)
}
