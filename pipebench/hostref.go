package main

import (
	"runtime"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts: on a
// 2-vCPU VM one repair's median over 15-second windows of one process
// ranged from 1× to 2.4× its fastest, and a run's raw medians follow
// whatever state the host is in during that run. To take that drift out,
// a run also times a fixed reference workload, hostRef, every refEvery
// through set-up and measurement, and scales its end-to-end times by the
// median reference time:
//
//	normalized = raw × refNominalMs / median(hostRef wall times of the run)
//
// (CPU time scales by the references' CPU time alike.) The end-to-end
// times are therefore "on a host where hostRef takes refNominalMs".
// hostRef shares no code with the program under test, so a change to the
// program moves the normalized times as it moves the raw ones; only its
// collection also marks what the process keeps live between repairs
// (the corpus, the samples, any state the program keeps). It allocates
// a pointer-rich map and collects it with the map live: the mix of
// allocation, hashing, cache misses and marking a repair does. A
// pure CPU loop slows by far less than a repair does when the host is
// contended, and a per-repair scale taken from the references next to it
// is noisier than the run's median. It runs on one P: a repair runs on
// one vCPU with the collector beside it, so when the other vCPU is busy
// a repair slows little, while a collection spread over two Ps waits
// for it (with another process busy on one of two vCPUs, the two-P
// reference slowed 2× and the repairs 1.2×).

const (
	// refNominalMs is the hostRef time the normalized figures assume.
	refNominalMs = 5.0
	// refEvery is the least time between two references: they take
	// about 3% of a run.
	refEvery = 200 * time.Millisecond
	// refNodes is the size of hostRef's map, about 2.5 MB live.
	refNodes = 30000
)

type refNode struct {
	next *refNode
	v    int
}

var refSink int

// hostRef times one run of the reference workload on a single P: wall
// and process CPU time, in ms, of building a linked map of refNodes
// nodes, a full collection with it live, and a round of lookups.
func hostRef() (wallMs, cpuMs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cpu0, t0 := cpuSeconds(), time.Now()
	m := make(map[int]*refNode, refNodes)
	var head *refNode
	for i := range refNodes {
		head = &refNode{head, i * 7919 % 100003}
		m[head.v] = head
	}
	runtime.GC()
	s := 0
	for i := range refNodes {
		if n := m[i*31%100003]; n != nil {
			s += n.v
		}
	}
	refSink += s + head.v
	return time.Since(t0).Seconds() * 1e3, (cpuSeconds() - cpu0) * 1e3
}

// maybeRef takes a reference when refEvery has passed since the last.
func (r *run) maybeRef() {
	if time.Since(r.lastRef) >= refEvery {
		r.takeRef()
	}
}

// takeRef times hostRef on a freshly collected heap.
func (r *run) takeRef() {
	runtime.GC()
	wall, cpu := hostRef()
	r.refWall = append(r.refWall, wall)
	r.refCPU = append(r.refCPU, cpu)
	r.lastRef = time.Now()
}

// wallScale and cpuScale turn the run's raw wall and CPU times into
// host-normalized ones.
func (r *run) wallScale() float64 { return refNominalMs / median(r.refWall) }
func (r *run) cpuScale() float64  { return refNominalMs / median(r.refCPU) }
