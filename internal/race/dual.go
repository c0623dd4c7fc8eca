package race

import (
	"fmt"

	"finishrepair/internal/dpst"
)

// ----------------------------------------------------------------------
// Dual oracle: ESP-Bags and vector clocks in lockstep over one scan.
//
// Running two complete detectors — two shadow memories, two scans — and
// comparing their race sets afterwards would double the shadow work.
// The fused engine (NewEngine with EngineBoth) keeps the cross-check
// without it: one MRW/SRW shadow memory is scanned once, and every ordering query is answered
// by *both* backend oracles, whose answers must agree. That is a
// strictly stronger differential test (agreement is checked per query,
// over every access pair the scan examines, not just on the final race
// sets) at roughly half the shadow-memory cost. It is the engine behind
// -detector both at every -j.

// OracleDivergence records the first ordering query on which the two
// backend oracles disagreed. Any divergence is a detector bug, never an
// expected outcome.
type OracleDivergence struct {
	PrevTag  uint64 // recorded epoch of the earlier access
	PrevStep int    // S-DPST node ID of the earlier access's step (-1 unknown)
	CurStep  int    // S-DPST node ID of the current step (-1 unknown)
	Bags, VC bool   // the conflicting answers
}

func (d *OracleDivergence) String() string {
	return fmt.Sprintf("ordering query diverged: step %d -> step %d (epoch %d/%d): espbags=%v vc=%v",
		d.PrevStep, d.CurStep, d.PrevTag>>32, uint32(d.PrevTag), d.Bags, d.VC)
}

// DualOracle drives the ESP-Bags and vector-clock oracles in lockstep
// over one replayed execution and cross-checks every Ordered answer.
// The recorded tag is the vector-clock epoch (task node ID in the high
// half, own-component count in the low half); ESP-Bags needs only the
// task ID, which it recovers from the high half, so one uint64 tag
// serves both backends and the shadow memory does not grow.
type DualOracle struct {
	bags *BagsOracle
	vc   *VCOracle
	// queries counts Ordered cross-checks; div records the first
	// divergence. Both are read after analysis (Engine.Check, metrics).
	queries uint64
	div     *OracleDivergence
}

// NewDualOracle pairs a fresh ESP-Bags oracle (from the reuse pool) with
// a fresh vector-clock oracle.
func NewDualOracle() *DualOracle {
	return &DualOracle{bags: NewBagsOracle(), vc: NewVCOracle()}
}

// TaskStart forwards to both oracles.
func (o *DualOracle) TaskStart(n *dpst.Node) {
	o.bags.TaskStart(n)
	o.vc.TaskStart(n)
}

// TaskEnd forwards to both oracles.
func (o *DualOracle) TaskEnd(n *dpst.Node) {
	o.bags.TaskEnd(n)
	o.vc.TaskEnd(n)
}

// FinishStart forwards to both oracles.
func (o *DualOracle) FinishStart(n *dpst.Node) {
	o.bags.FinishStart(n)
	o.vc.FinishStart(n)
}

// FinishEnd forwards to both oracles.
func (o *DualOracle) FinishEnd(n *dpst.Node) {
	o.bags.FinishEnd(n)
	o.vc.FinishEnd(n)
}

// Tag returns the vector-clock epoch; its high half is the task node ID
// the ESP-Bags side queries by.
func (o *DualOracle) Tag() uint64 { return o.vc.Tag() }

// Ordered answers with the ESP-Bags verdict after checking that the
// vector-clock oracle agrees; the first divergence is recorded for
// Check rather than failing mid-scan, so the analysis still completes
// and the error surfaces with full context.
func (o *DualOracle) Ordered(prevTag uint64, prevStep, curStep *dpst.Node) bool {
	b := o.bags.Ordered(prevTag>>32, prevStep, curStep)
	v := o.vc.Ordered(prevTag, prevStep, curStep)
	o.queries++
	if b != v && o.div == nil {
		d := &OracleDivergence{PrevTag: prevTag, PrevStep: -1, CurStep: -1, Bags: b, VC: v}
		if prevStep != nil {
			d.PrevStep = prevStep.ID
		}
		if curStep != nil {
			d.CurStep = curStep.ID
		}
		o.div = d
	}
	return b
}

// Release returns the ESP-Bags side to its reuse pool. The divergence
// record and query count stay readable.
func (o *DualOracle) Release() {
	if o.bags != nil {
		o.bags.Release()
		o.bags = nil
	}
	o.vc = nil
}
