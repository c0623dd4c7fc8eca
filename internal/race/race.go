// Package race implements dynamic data-race detection for the canonical
// sequential depth-first execution of async/finish programs.
//
// Two detector variants mirror the paper (§4.1):
//
//   - SRW ("Single Reader-Writer ESP-Bags"): the classic ESP-Bags shadow
//     memory with one reader and one writer slot per location. It reports
//     only a subset of the races per run, so repair may need a second
//     detection run to confirm no races remain.
//   - MRW ("Multiple Reader-Writer ESP-Bags"): tracks all readers and
//     writers per location and reports every race in a single run.
//
// Both are parameterized by an Oracle answering "is this earlier access
// ordered before the current one?". Two oracles are provided: BagsOracle
// (the ESP-Bags union-find structure of Raman et al., driven by task
// structure events) and DPSTOracle (Theorem 1 queries on the S-DPST).
// They are interchangeable and must agree; tests cross-validate them.
//
// The MRW shadow memory keeps an epoch-style frontier per access list
// (after FastTrack's adaptive representation): entries proven ordered
// before a per-list scan point are partitioned into a prefix that later
// accesses skip wholesale, because happens-before is transitive. Full
// O(list) rescans happen only when the scan point itself is not ordered
// before the current step. Shadow cells live in a slab, access records
// are unboxed 16-byte structs, and detector state is recycled through a
// sync.Pool across replay iterations (see Releaser).
package race

import (
	"fmt"
	"sync"

	"finishrepair/internal/dpst"
	"finishrepair/internal/trace"
)

// Kind classifies a race by the access kinds of source and sink.
type Kind uint8

// Race kinds: source access → sink access.
const (
	WriteWrite Kind = iota
	ReadWrite       // earlier read, later write
	WriteRead       // earlier write, later read
)

// String names the race kind.
func (k Kind) String() string {
	switch k {
	case WriteWrite:
		return "W->W"
	case ReadWrite:
		return "R->W"
	default:
		return "W->R"
	}
}

// Race is a data race between two step instances on one location. Src is
// the DFS-earlier step (the source, paper §4.2), Dst the sink. SrcSite
// and DstSite are the static coordinates of the racing accesses
// themselves — more precise than the merged maximal steps, which may
// span many statements — recorded so the isolated repair strategy can
// wrap exactly the racing statements.
type Race struct {
	Src, Dst         *dpst.Node
	Loc              uint64
	Kind             Kind
	SrcSite, DstSite trace.Site
}

// String renders the race for diagnostics.
func (r *Race) String() string {
	return fmt.Sprintf("%s: step %d -> step %d @loc %d", r.Kind, r.Src.ID, r.Dst.ID, r.Loc)
}

// Oracle answers ordering queries between a recorded earlier access and
// the current execution point. Structure events arrive in depth-first
// execution order.
type Oracle interface {
	TaskStart(n *dpst.Node)
	TaskEnd(n *dpst.Node)
	FinishStart(n *dpst.Node)
	FinishEnd(n *dpst.Node)
	// Tag returns the bookkeeping value to record alongside an access by
	// the current step, packed into a uint64 so the shadow memory stores
	// accesses without interface boxing: the task node ID for ESP-Bags,
	// a (task, count) epoch for vector clocks, 0 for the stateless S-DPST
	// oracle.
	Tag() uint64
	// Ordered reports whether the earlier access (prevTag, prevStep) is
	// ordered before the current step, i.e. cannot race with it. Every
	// oracle but the stateless DPSTOracle answers from prevTag and the
	// current execution point alone, so MRW memoizes repeated queries
	// for one tag within a scan.
	Ordered(prevTag uint64, prevStep, curStep *dpst.Node) bool
	// Release returns the oracle's state to its reuse pool, if it has
	// one; the owning detector's Release calls it.
	Release()
}

// Releaser is the Release method every Detector has: it returns the
// detector's shadow structures and its oracle to their reuse pools.
// Slices previously returned by Races() stay valid after Release, but
// the detector itself must not be used again.
type Releaser interface {
	Release()
}

// Detector is the common interface of SRW and MRW. Accesses carry their
// static site; two accesses whose sites are both isolated under
// mutually-exclusive lock classes (see isoOrdered) are ordered by that
// lock and never race (the suppression lives here, in the detectors, so
// every oracle-backed engine shares one rule and the differential
// cross-check stays honest for free).
type Detector interface {
	Read(loc uint64, step *dpst.Node, site trace.Site)
	Write(loc uint64, step *dpst.Node, site trace.Site)
	TaskStart(n *dpst.Node)
	TaskEnd(n *dpst.Node)
	FinishStart(n *dpst.Node)
	FinishEnd(n *dpst.Node)
	// Races returns the distinct races found, in detection order.
	Races() []*Race
	// Presize pre-sizes the shadow structures from the expected number
	// of trace events; Analyze calls it with the trace length.
	Presize(events int)
	// ShadowCells reports the number of distinct locations tracked.
	ShadowCells() int
	Releaser
	// log is the raw report log behind Races.
	log() *recorder
}

// access is one recorded shadow-memory entry: unboxed.
type access struct {
	step *dpst.Node
	tag  uint64
	site trace.Site
}

// ----------------------------------------------------------------------
// SRW ESP-Bags

// isoOrdered reports whether two accesses are ordered by an isolated
// lock both their bodies hold: both isolated, and the lock classes
// exclude each other — either is class 0 (the global lock, which
// excludes every isolated body) or the classes are equal. Bodies of
// different nonzero classes run under independent locks, so their
// accesses stay racy.
func isoOrdered(a, b trace.Site) bool {
	return a.Iso && b.Iso && (a.IsoClass == 0 || b.IsoClass == 0 || a.IsoClass == b.IsoClass)
}

// srwSlots is one isolation group's reader and writer slot.
type srwSlots struct {
	reader access
	writer access
}

// srwIsoSlots is the slot pair of the isolated accesses under one lock
// class.
type srwIsoSlots struct {
	class int32
	srwSlots
}

// srwCell keeps one slot pair per isolation group of a location: plain
// accesses form one group, held inline, and isolated accesses form one
// group per lock class. Whether isolation suppresses a race depends only
// on the two accesses' groups (isoOrdered), so replacing a slot's
// occupant stays sound within a group. One pair for all accesses is
// not: an isolated access could evict the one access a later access
// races with, while the pair it forms with that occupant is suppressed.
type srwCell struct {
	srwSlots
	iso []srwIsoSlots
}

// isoSlots returns the cell's slot pair for isolated accesses of lock
// class class, adding it on first use.
func (c *srwCell) isoSlots(class int32) *srwSlots {
	for i := range c.iso {
		if c.iso[i].class == class {
			return &c.iso[i].srwSlots
		}
	}
	c.iso = append(c.iso, srwIsoSlots{class: class})
	return &c.iso[len(c.iso)-1].srwSlots
}

// SRW is the single reader-writer detector.
type SRW struct {
	oracle Oracle
	cells  map[uint64]int32
	slab   []srwCell
	rec    recorder
}

// NewSRW returns an SRW detector using the given oracle.
func NewSRW(o Oracle) *SRW {
	return &SRW{oracle: o, cells: make(map[uint64]int32)}
}

// Presize pre-sizes the shadow map from the expected event count.
func (d *SRW) Presize(events int) {
	if len(d.cells) == 0 && events > 0 {
		d.cells = make(map[uint64]int32, events/32)
	}
}

func (d *SRW) cell(loc uint64) *srwCell {
	if i, ok := d.cells[loc]; ok {
		return &d.slab[i]
	}
	d.cells[loc] = int32(len(d.slab))
	d.slab = append(d.slab, srwCell{})
	return &d.slab[len(d.slab)-1]
}

// check reports a race of the given kind between the slot's occupant
// and the current access by step, unless they are ordered by the task
// structure or by an isolated lock.
func (d *SRW) check(occ *access, step *dpst.Node, loc uint64, kind Kind, site trace.Site) {
	if occ.step != nil && occ.step != step &&
		!d.oracle.Ordered(occ.tag, occ.step, step) &&
		!isoOrdered(occ.site, site) {
		d.rec.report(occ.step, step, loc, kind, occ.site, site)
	}
}

// keepParallel records the current access in slot unless the occupant
// is still parallel to it (the SP-bags reader update rule): the slot
// keeps pointing at a still-parallel access.
func (d *SRW) keepParallel(slot *access, step *dpst.Node, site trace.Site) {
	if slot.step == nil || d.oracle.Ordered(slot.tag, slot.step, step) {
		*slot = access{step: step, tag: d.oracle.Tag(), site: site}
	}
}

// Read handles a read of loc by step.
func (d *SRW) Read(loc uint64, step *dpst.Node, site trace.Site) {
	c := d.cell(loc)
	d.check(&c.writer, step, loc, WriteRead, site)
	for i := range c.iso {
		d.check(&c.iso[i].writer, step, loc, WriteRead, site)
	}
	slots := &c.srwSlots
	if site.Iso {
		slots = c.isoSlots(site.IsoClass)
	}
	d.keepParallel(&slots.reader, step, site)
}

// Write handles a write of loc by step.
func (d *SRW) Write(loc uint64, step *dpst.Node, site trace.Site) {
	c := d.cell(loc)
	d.check(&c.writer, step, loc, WriteWrite, site)
	d.check(&c.reader, step, loc, ReadWrite, site)
	for i := range c.iso {
		d.check(&c.iso[i].writer, step, loc, WriteWrite, site)
		d.check(&c.iso[i].reader, step, loc, ReadWrite, site)
	}
	if !site.Iso {
		c.writer = access{step: step, tag: d.oracle.Tag(), site: site}
		return
	}
	// Parallel members of one isolated group never race with each other,
	// so a parallel writer must not evict the occupant either: only the
	// occupant is there for later accesses of other groups to race with.
	d.keepParallel(&c.isoSlots(site.IsoClass).writer, step, site)
}

// TaskStart forwards to the oracle.
func (d *SRW) TaskStart(n *dpst.Node) { d.oracle.TaskStart(n) }

// TaskEnd forwards to the oracle.
func (d *SRW) TaskEnd(n *dpst.Node) { d.oracle.TaskEnd(n) }

// FinishStart forwards to the oracle.
func (d *SRW) FinishStart(n *dpst.Node) { d.oracle.FinishStart(n) }

// FinishEnd forwards to the oracle.
func (d *SRW) FinishEnd(n *dpst.Node) { d.oracle.FinishEnd(n) }

// Races returns the distinct races detected.
func (d *SRW) Races() []*Race { return d.rec.resolved() }

// ShadowCells reports the number of distinct locations tracked.
func (d *SRW) ShadowCells() int { return len(d.cells) }

// Release returns the oracle to its reuse pool; the detector must not
// be used afterwards. Races already returned stay valid.
func (d *SRW) Release() {
	d.oracle.Release()
	d.oracle = nil
}

func (d *SRW) log() *recorder { return &d.rec }

// ----------------------------------------------------------------------
// MRW ESP-Bags

// mrwList is one direction (readers or writers) of a shadow cell's
// access history, with an epoch-style frontier: accs[:ord] are proven
// ordered before the scan point (scanStep, scanTag). A later access that
// the scan point is ordered before inherits the whole prefix by
// transitivity and rescans only accs[ord:]; otherwise the frontier is
// stale and the list is repartitioned against the current step.
type mrwList struct {
	accs     []access
	ord      int
	scanned  int // how far scanStep itself has already examined the list
	scanStep *dpst.Node
	scanKind Kind  // race kind the watermark scan reported under
	scanIso  bool  // isolation state the watermark scan ran under
	scanCls  int32 // lock class the watermark scan ran under
	scanTag  uint64
	last     *dpst.Node // most recently appended step, for dedupe
	lastIso  bool       // isolation state of the last appended access
	lastCls  int32      // lock class of the last appended access
}

func (l *mrwList) reset() {
	clear(l.accs) // drop S-DPST node references before pooling
	l.accs = l.accs[:0]
	l.ord = 0
	l.scanned = 0
	l.scanStep = nil
	l.scanIso = false
	l.scanCls = 0
	l.scanTag = 0
	l.last = nil
	l.lastIso = false
	l.lastCls = 0
}

type mrwCell struct {
	readers mrwList
	writers mrwList
}

// MRW is the multiple reader-writer detector: it keeps every reader and
// writer of each location so that all races are reported in one run.
type MRW struct {
	oracle   Oracle
	tagKeyed bool
	cells    map[uint64]int32
	slab     []mrwCell
	used     int
	rec      recorder
}

var mrwPool = sync.Pool{New: func() any { return new(MRW) }}

// NewMRW returns an MRW detector using the given oracle. The detector
// may come from the package's reuse pool; calling Release when done
// (optional) returns its shadow structures for later detections.
func NewMRW(o Oracle) *MRW {
	d := mrwPool.Get().(*MRW)
	if d.cells == nil {
		d.cells = make(map[uint64]int32)
	}
	d.oracle = o
	_, stateless := o.(*DPSTOracle)
	d.tagKeyed = !stateless
	return d
}

// Presize pre-sizes the shadow map and cell slab from the expected event
// count.
func (d *MRW) Presize(events int) {
	if events <= 0 {
		return
	}
	if len(d.cells) == 0 && d.used == 0 && len(d.slab) == 0 {
		d.cells = make(map[uint64]int32, events/32)
		d.slab = make([]mrwCell, 0, events/32)
	}
}

// Release resets the detector and returns its shadow structures (cell
// slab, access lists, open report chunk) and its oracle to their reuse
// pools. Race slices already returned by Races() remain valid; the
// detector must not be used afterwards.
func (d *MRW) Release() {
	for i := range d.slab[:d.used] {
		c := &d.slab[i]
		c.readers.reset()
		c.writers.reset()
	}
	d.used = 0
	clear(d.cells)
	d.rec.reset()
	d.oracle.Release()
	d.oracle = nil
	mrwPool.Put(d)
}

// ShadowCells reports the number of distinct locations tracked.
func (d *MRW) ShadowCells() int { return d.used }

func (d *MRW) cell(loc uint64) *mrwCell {
	if i, ok := d.cells[loc]; ok {
		return &d.slab[i]
	}
	i := d.used
	if i == len(d.slab) {
		d.slab = append(d.slab, mrwCell{})
	}
	d.used++
	d.cells[loc] = int32(i)
	return &d.slab[i]
}

// scan checks the current access by step against the recorded accesses
// in l, reporting races of the given kind, and advances l's frontier:
// every entry proven ordered before step is swapped into the accs[:ord]
// prefix and the scan point becomes step, so the next access that step
// is ordered before skips the prefix entirely.
func (d *MRW) scan(l *mrwList, step *dpst.Node, loc uint64, kind Kind, site trace.Site) {
	i := 0
	switch {
	case l.scanStep == step && l.scanKind == kind && l.scanIso == site.Iso && l.scanCls == site.IsoClass:
		// Same step scanning under the same race kind and isolation
		// state: everything up to the watermark was already examined
		// against this very step (ordered entries moved into the prefix,
		// races reported or iso-suppressed identically); only entries
		// appended since remain.
		i = l.scanned
	case l.scanStep == step:
		// Same step but a different kind (a step that read loc now writes
		// it) or a different isolation state or lock class (a merged step
		// accessing loc both inside and outside isolated, or under
		// different isolated lock classes): the ordered prefix still
		// holds, but entries in accs[ord:] must be re-examined.
		i = l.ord
	case l.scanStep != nil && d.oracle.Ordered(l.scanTag, l.scanStep, step):
		i = l.ord
	default:
		// Stale frontier: repartition the whole list against step.
		l.ord = 0
	}
	var memoTag uint64
	var memoOrd, memoValid bool
	for ; i < len(l.accs); i++ {
		a := l.accs[i]
		if a.step == step {
			continue
		}
		var ord bool
		if d.tagKeyed && memoValid && a.tag == memoTag {
			ord = memoOrd
		} else {
			ord = d.oracle.Ordered(a.tag, a.step, step)
			memoTag, memoOrd, memoValid = a.tag, ord, true
		}
		switch {
		case ord:
			l.accs[i] = l.accs[l.ord]
			l.accs[l.ord] = a
			l.ord++
		case isoOrdered(a.site, site):
			// Both accesses isolated under mutually-exclusive lock
			// classes: ordered by that lock. The entry stays OUT of the
			// ordered prefix — the suppression is pairwise, not
			// transitive, so a later non-isolated access (or one under an
			// independent lock class) must still examine it.
		default:
			d.rec.report(a.step, step, loc, kind, a.site, site)
		}
	}
	l.scanStep = step
	l.scanKind = kind
	l.scanIso = site.Iso
	l.scanCls = site.IsoClass
	l.scanTag = d.oracle.Tag()
	l.scanned = len(l.accs)
}

// Read handles a read of loc by step.
func (d *MRW) Read(loc uint64, step *dpst.Node, site trace.Site) {
	c := d.cell(loc)
	d.scan(&c.writers, step, loc, WriteRead, site)
	if c.readers.last == step && c.readers.lastIso == site.Iso && c.readers.lastCls == site.IsoClass {
		return // same step re-reading under the same isolation state
	}
	c.readers.last = step
	c.readers.lastIso = site.Iso
	c.readers.lastCls = site.IsoClass
	c.readers.accs = append(c.readers.accs, access{step: step, tag: d.oracle.Tag(), site: site})
}

// Write handles a write of loc by step.
func (d *MRW) Write(loc uint64, step *dpst.Node, site trace.Site) {
	c := d.cell(loc)
	d.scan(&c.writers, step, loc, WriteWrite, site)
	d.scan(&c.readers, step, loc, ReadWrite, site)
	if c.writers.last == step && c.writers.lastIso == site.Iso && c.writers.lastCls == site.IsoClass {
		return
	}
	c.writers.last = step
	c.writers.lastIso = site.Iso
	c.writers.lastCls = site.IsoClass
	c.writers.accs = append(c.writers.accs, access{step: step, tag: d.oracle.Tag(), site: site})
}

// TaskStart forwards to the oracle.
func (d *MRW) TaskStart(n *dpst.Node) { d.oracle.TaskStart(n) }

// TaskEnd forwards to the oracle.
func (d *MRW) TaskEnd(n *dpst.Node) { d.oracle.TaskEnd(n) }

// FinishStart forwards to the oracle.
func (d *MRW) FinishStart(n *dpst.Node) { d.oracle.FinishStart(n) }

// FinishEnd forwards to the oracle.
func (d *MRW) FinishEnd(n *dpst.Node) { d.oracle.FinishEnd(n) }

// Races returns the distinct races detected.
func (d *MRW) Races() []*Race { return d.rec.resolved() }

func (d *MRW) log() *recorder { return &d.rec }
