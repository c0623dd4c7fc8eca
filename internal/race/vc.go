package race

import (
	"finishrepair/internal/dpst"
)

// ----------------------------------------------------------------------
// Vector-clock oracle: dynamic happens-before for async-finish programs
// (after Kumar et al., "Dynamic Race Detection with O(1) Samples"; see
// PAPERS.md). Each task carries a vector clock; finishes accumulate the
// clocks of tasks joining at them. An access is tagged with the
// accessing task's epoch (task ID, own-component count); an earlier
// access happens-before the current point iff the current task's clock
// has caught up with that epoch.

// vclock is a sparse vector clock keyed by task (S-DPST node) ID.
type vclock map[int32]uint32

// join raises dst to the pointwise maximum of dst and src.
func (dst vclock) join(src vclock) {
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
		}
	}
}

type vcTask struct {
	id    int32
	clock vclock
}

// VCOracle is the vector-clock ordering oracle. Structure events arrive
// in canonical depth-first order, so a single task stack and a single
// finish-frame stack suffice:
//
//   - task spawn: the child's clock is a copy of the parent's with its
//     own component set to 1; the parent then increments its own
//     component (accesses after the spawn are not ordered before the
//     child's);
//   - task end: the ended task's clock joins the accumulator of the
//     innermost enclosing finish;
//   - finish end: the accumulator joins the executing task's clock and
//     the task increments its own component.
//
// The root task doubles as the outermost implicit finish, exactly as in
// the ESP-Bags oracle.
type VCOracle struct {
	tasks []vcTask
	acc   []vclock // finish-frame accumulators, innermost last
}

// NewVCOracle returns an empty vector-clock oracle.
func NewVCOracle() *VCOracle { return &VCOracle{} }

// TaskStart handles the start of a task (async instance or the root).
func (o *VCOracle) TaskStart(n *dpst.Node) {
	id := int32(n.ID)
	if len(o.tasks) == 0 {
		o.tasks = append(o.tasks, vcTask{id: id, clock: vclock{id: 1}})
		// The root task doubles as the outermost implicit finish.
		o.acc = append(o.acc, vclock{})
		return
	}
	parent := &o.tasks[len(o.tasks)-1]
	c := make(vclock, len(parent.clock)+1)
	for k, v := range parent.clock {
		c[k] = v
	}
	c[id] = 1
	parent.clock[parent.id]++
	o.tasks = append(o.tasks, vcTask{id: id, clock: c})
}

// TaskEnd joins the ended task's clock into the innermost finish.
func (o *VCOracle) TaskEnd(n *dpst.Node) {
	t := o.tasks[len(o.tasks)-1]
	o.tasks = o.tasks[:len(o.tasks)-1]
	if len(o.tasks) == 0 {
		return // root task end; detection is over
	}
	o.acc[len(o.acc)-1].join(t.clock)
}

// FinishStart opens a finish scope with an empty join accumulator.
func (o *VCOracle) FinishStart(n *dpst.Node) {
	o.acc = append(o.acc, vclock{})
}

// FinishEnd joins everything that ended under the finish into the
// executing task.
func (o *VCOracle) FinishEnd(n *dpst.Node) {
	a := o.acc[len(o.acc)-1]
	o.acc = o.acc[:len(o.acc)-1]
	cur := &o.tasks[len(o.tasks)-1]
	cur.clock.join(a)
	cur.clock[cur.id]++
}

// Tag returns the current task's epoch packed into a uint64:
// task ID in the high half, own-component count in the low half.
func (o *VCOracle) Tag() uint64 {
	cur := &o.tasks[len(o.tasks)-1]
	return uint64(uint32(cur.id))<<32 | uint64(cur.clock[cur.id])
}

// Ordered reports whether the earlier access with epoch prevTag
// happens-before the current execution point.
func (o *VCOracle) Ordered(prevTag uint64, _, _ *dpst.Node) bool {
	u := int32(prevTag >> 32)
	c := uint32(prevTag)
	cur := &o.tasks[len(o.tasks)-1]
	return cur.clock[u] >= c
}

// Release is a no-op; vector clocks are not pooled.
func (o *VCOracle) Release() {}
