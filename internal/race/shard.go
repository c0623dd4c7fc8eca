package race

import (
	"math"
	"sync"
	"time"

	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/trace"
)

// ----------------------------------------------------------------------
// Sharded shadow memory.
//
// One replay pass demultiplexes the event stream into a bounded chunked
// op log; W shard workers consume it concurrently. Every worker applies
// all structure ops (each holds a private dual oracle, so ordering
// queries stay lock-free), but only the accesses whose location hashes
// into its shard — the shadow memory is partitioned by location, and a
// location's cell history evolves identically to the serial scan's
// because all of its accesses land in one shard in trace order.
//
// Determinism: every access op carries a global index (ord). A raw race
// report is stamped with the ord of the access that produced it; ord
// sets are disjoint across shards (one access touches one location,
// hence one shard) and each shard logs its reports in ord order, so a
// k-way merge of the per-shard logs by ord reconstructs exactly the
// serial raw-report order. The merge lands in the target engine's
// report log, whose shared resolve/dedupe pass then yields
// byte-identical races for any shard count, including W=1 (serial).

// Shard-op kinds.
const (
	opRead = uint8(iota)
	opWrite
	opTaskStart
	opTaskEnd
	opFinishStart
	opFinishEnd
)

// shardOp is one demultiplexed replay event.
type shardOp struct {
	loc  uint64
	step *dpst.Node
	site trace.Site
	kind uint8
}

const (
	// shardOpChunk is the op-log chunk size: big enough to amortize the
	// seal/handoff lock, small enough that the pipeline stays tight.
	shardOpChunk = 8192
	// shardMaxLead bounds how many sealed chunks the producer may run
	// ahead of the slowest live worker, capping op-log memory at
	// shardMaxLead+1 chunks (plus recycled spares) regardless of trace
	// size.
	shardMaxLead = 4
)

// opLog is the bounded, chunked op queue between the replay producer and
// the shard workers. Sealed chunks are immutable; each worker tracks its
// own cursor; fully consumed chunks are recycled back to the producer.
type opLog struct {
	mu       sync.Mutex
	cond     *sync.Cond
	chunks   [][]shardOp // sealed chunks, indexed absolutely
	free     [][]shardOp // consumed chunk arrays, ready for reuse
	recycled int         // chunks[:recycled] have been handed back
	done     bool
	err      error // producer failure; workers abort without draining
	cursors  []int // per-worker count of fully consumed chunks
}

func newOpLog(workers int) *opLog {
	l := &opLog{cursors: make([]int, workers)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// minCursor returns the slowest worker's cursor. Dead workers park at
// MaxInt and never hold the producer back.
func (l *opLog) minCursor() int {
	m := math.MaxInt
	for _, c := range l.cursors {
		if c < m {
			m = c
		}
	}
	return m
}

// newChunk returns an empty op buffer, reusing a recycled one when
// available.
func (l *opLog) newChunk() []shardOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		c := l.free[n-1]
		l.free = l.free[:n-1]
		return c[:0]
	}
	return make([]shardOp, 0, shardOpChunk)
}

// seal publishes a filled chunk, blocking while the producer is more
// than shardMaxLead chunks ahead of the slowest live worker.
func (l *opLog) seal(c []shardOp) {
	l.mu.Lock()
	for len(l.chunks)-l.minCursor() >= shardMaxLead {
		l.cond.Wait()
	}
	l.chunks = append(l.chunks, c)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// finish publishes the partial tail chunk and marks the log complete.
func (l *opLog) finish(tail []shardOp) {
	l.mu.Lock()
	if len(tail) > 0 {
		l.chunks = append(l.chunks, tail)
	}
	l.done = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// fail marks the log complete with a producer error: workers abort at
// their next fetch instead of draining.
func (l *opLog) fail(err error) {
	l.mu.Lock()
	l.done = true
	l.err = err
	l.cond.Broadcast()
	l.mu.Unlock()
}

// next blocks until chunk i is available. ok=false means the log is
// exhausted; a non-nil error is the producer's failure.
func (l *opLog) next(i int) (chunk []shardOp, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return nil, false, l.err
		}
		if i < len(l.chunks) {
			return l.chunks[i], true, nil
		}
		if l.done {
			return nil, false, nil
		}
		l.cond.Wait()
	}
}

// consumed records that worker w fully processed chunk i; chunks every
// worker has passed are recycled and the producer is woken.
func (l *opLog) consumed(w, i int) {
	l.mu.Lock()
	l.cursors[w] = i + 1
	for m := l.minCursor(); l.recycled < m && l.recycled < len(l.chunks); l.recycled++ {
		l.free = append(l.free, l.chunks[l.recycled])
		l.chunks[l.recycled] = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// abandon parks a dead worker's cursor at MaxInt so it never throttles
// the producer, and recycles whatever it alone was holding back.
func (l *opLog) abandon(w int) {
	l.mu.Lock()
	l.cursors[w] = math.MaxInt
	for m := l.minCursor(); l.recycled < m && l.recycled < len(l.chunks); l.recycled++ {
		l.free = append(l.free, l.chunks[l.recycled])
		l.chunks[l.recycled] = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// demuxSink is the replay sink on the producer side: it serializes every
// structure and access event into the op log in one pass.
type demuxSink struct {
	log *opLog
	cur []shardOp
}

func newDemuxSink(log *opLog) *demuxSink {
	return &demuxSink{log: log, cur: make([]shardOp, 0, shardOpChunk)}
}

func (s *demuxSink) add(op shardOp) {
	s.cur = append(s.cur, op)
	if len(s.cur) == shardOpChunk {
		s.log.seal(s.cur)
		s.cur = s.log.newChunk()
	}
}

// Read enqueues an access op.
func (s *demuxSink) Read(loc uint64, step *dpst.Node, site trace.Site) {
	s.add(shardOp{kind: opRead, loc: loc, step: step, site: site})
}

// Write enqueues an access op.
func (s *demuxSink) Write(loc uint64, step *dpst.Node, site trace.Site) {
	s.add(shardOp{kind: opWrite, loc: loc, step: step, site: site})
}

// TaskStart enqueues a structure op.
func (s *demuxSink) TaskStart(n *dpst.Node) { s.add(shardOp{kind: opTaskStart, step: n}) }

// TaskEnd enqueues a structure op.
func (s *demuxSink) TaskEnd(n *dpst.Node) { s.add(shardOp{kind: opTaskEnd, step: n}) }

// FinishStart enqueues a structure op.
func (s *demuxSink) FinishStart(n *dpst.Node) { s.add(shardOp{kind: opFinishStart, step: n}) }

// FinishEnd enqueues a structure op.
func (s *demuxSink) FinishEnd(n *dpst.Node) { s.add(shardOp{kind: opFinishEnd, step: n}) }

// shardOf maps a location to its shard (Fibonacci multiplicative hash:
// trace locations are low-entropy small integers, and consecutive array
// slots must spread rather than stripe).
func shardOf(loc uint64, shards int) int {
	return int((loc * 0x9E3779B97F4A7C15 >> 33) % uint64(shards))
}

// shardWorker drains the op log for shard w: all structure ops feed its
// private oracle, accesses hashing into w feed its detector, stamped
// with their global op index.
func shardWorker(w, shards int, det Detector, rec *recorder, log *opLog, m *guard.Meter) error {
	base := uint64(0)
	for ci := 0; ; ci++ {
		chunk, ok, err := log.next(ci)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for i := range chunk {
			op := &chunk[i]
			switch op.kind {
			case opRead:
				if shardOf(op.loc, shards) == w {
					rec.ord = base + uint64(i)
					det.Read(op.loc, op.step, op.site)
				}
			case opWrite:
				if shardOf(op.loc, shards) == w {
					rec.ord = base + uint64(i)
					det.Write(op.loc, op.step, op.site)
				}
			case opTaskStart:
				det.TaskStart(op.step)
			case opTaskEnd:
				det.TaskEnd(op.step)
			case opFinishStart:
				det.FinishStart(op.step)
			case opFinishEnd:
				det.FinishEnd(op.step)
			}
		}
		base += uint64(len(chunk))
		log.consumed(w, ci)
		// The producer's replay charges the op budget; workers only poll
		// for cancellation/deadline so an aborted run winds down fast.
		if err := m.Check(); err != nil {
			return err
		}
	}
}

// AnalyzeSharded is Analyze for a fused engine with its shadow memory
// partitioned across exactly `shards` concurrent workers. Results are
// byte-identical to the serial scan for any shard count. Most callers
// want AnalyzeParallel, which picks a shard count from the requested
// workers and the machine; this entry point takes the count literally
// (tests exercise the shard machinery with it on any machine).
func AnalyzeSharded(tr *trace.Trace, prog *ast.Program, fins []trace.FinishRange, f *Fused, m *guard.Meter, noCollapse bool, shards int) (*trace.Result, error) {
	if shards <= 1 {
		return Analyze(tr, prog, fins, f, m, noCollapse)
	}
	run := func(opts trace.ReplayOptions) (*trace.Result, error) {
		return trace.Replay(tr, opts)
	}
	return analyzeShardedFrom(run, tr.Len(), prog, fins, f, m, noCollapse, shards)
}

// analyzeShardedFrom runs the sharded analysis over any replay source
// (captured trace or live stream). events presizes the per-shard shadow
// arenas; 0 skips presizing (streaming, where the total is unknown).
func analyzeShardedFrom(run func(trace.ReplayOptions) (*trace.Result, error), events int, prog *ast.Program, fins []trace.FinishRange, f *Fused, m *guard.Meter, noCollapse bool, shards int) (*trace.Result, error) {
	m.SetPhase("detect")
	t0 := time.Now()

	log := newOpLog(shards)
	dets := make([]Detector, shards)
	duals := make([]*DualOracle, shards)
	for i := range dets {
		duals[i] = NewDualOracle()
		dets[i] = New(f.variant, duals[i])
		if events > 0 {
			if p, ok := dets[i].(Presizer); ok {
				p.Presize(events / shards)
			}
		}
	}

	errs := make([]error, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Protect inside the goroutine: a contained panic must surface
			// as this worker's error, not crash the process.
			err := guard.Protect("detect", func() error {
				return shardWorker(w, shards, dets[w], dets[w].(reportLogger).log(), log, m)
			})
			if err != nil {
				errs[w] = err
				log.abandon(w)
			}
		}(w)
	}

	sink := newDemuxSink(log)
	rr, rerr := run(trace.ReplayOptions{
		Prog:       prog,
		Finishes:   fins,
		Sink:       sink,
		NoCollapse: noCollapse,
		Meter:      m,
	})
	if rerr != nil {
		log.fail(rerr)
	} else {
		log.finish(sink.cur)
	}
	wg.Wait()

	// Deterministic error preference: the producer's error wins, then the
	// lowest-indexed worker's, so the outcome does not depend on
	// goroutine scheduling.
	if rerr == nil {
		for _, e := range errs {
			if e != nil {
				rerr = e
				break
			}
		}
	}
	release := func() {
		for _, d := range dets {
			if r, ok := d.(Releaser); ok {
				r.Release()
			}
		}
	}
	if rerr != nil {
		release()
		return nil, rerr
	}

	// Deterministic merge: each shard's log is in ord order and ords are
	// disjoint across shards, so a k-way merge by ord into the fused
	// engine's log is exactly the serial raw stream. Merge before
	// releasing the shard detectors (merge copies; Release drops the
	// source logs).
	logs := make([]*recorder, shards)
	for i, d := range dets {
		logs[i] = d.(reportLogger).log()
	}
	f.Detector.(reportLogger).log().merge(logs)

	for i, d := range dets {
		if s, ok := d.(ShadowSizer); ok {
			f.shardCells += s.ShadowCells()
		}
		f.shardQueries += duals[i].queries
		if f.shardDiv == nil {
			f.shardDiv = duals[i].div
		}
	}
	release()

	mAnalyzeShards.Set(int64(shards))
	observeAnalysis(f, rr, time.Since(t0))
	return rr, nil
}
