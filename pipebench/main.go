// Command pipebench is the repository's end-to-end repair benchmark. It
// times what hjrepair does to a buggy file — tdr.Load, Repair, Source —
// over a seeded corpus of finish-stripped programs, checks every
// repair, and prints one JSON result line last on standard output. A
// human-readable summary goes to standard error.
//
// Build and run it from the repository root:
//
//	bash pipebench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
//
// Workloads are paper-suite, progen-commute and adversary-k16 (see
// corpus.go and BENCHMARK.json). With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 it alternates untraced passes with
// traced passes that call each layer's public functions directly, and
// reports the per-layer metrics.
//
// Every timing is a per-program median of samples; each pass visits the
// programs in an order drawn from the seed, and a visit repeats a fast
// program until it has used its share of the pass, so every program gets
// about the same measuring time. Each repair starts on a freshly
// collected heap, as a new hjrepair process would. A reference workload
// timed between repairs scales the end-to-end times to a nominal host
// speed, which takes out the host's drift (hostref.go). Set-up
// (corpus, references, expert spans, one warm-up pass) runs setupReps
// times and setup_s is the median, the first measured from process
// start.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"finishrepair/tdr"
)

// processStart approximates process start: package variables are
// initialized before main runs.
var processStart = time.Now()

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// minPasses is the fewest measured passes a run makes, however
	// long they take.
	minPasses = 3
	// targetPasses is how many passes the visit share aims at: a visit
	// repeats its program for seconds/(targetPasses*programs).
	targetPasses = 14
	// maxFailureNotes bounds the failure messages printed to stderr.
	maxFailureNotes = 10
)

// counts are the repair's exact, deterministic work counts: they must
// repeat across passes and runs.
type counts struct {
	Races      int64 `json:"races"`
	SDPSTNodes int64 `json:"sdpst_nodes"`
	DPStates   int64 `json:"dp_states"`
	Groups     int64 `json:"groups"`
	Iterations int64 `json:"iterations"`
	Schedules  int64 `json:"schedules"`
	Isolated   int64 `json:"isolated"`
}

func reportCounts(rep *tdr.RepairReport) counts {
	c := counts{Iterations: int64(rep.Iterations), Isolated: int64(rep.IsolatedInserted)}
	for _, it := range rep.PerIteration {
		c.Races += int64(it.Races)
		c.SDPSTNodes += int64(it.SDPSTNodes)
		c.DPStates += it.DPStates
		c.Groups += int64(it.NSLCAs)
	}
	if rep.Adversary != nil {
		c.Schedules = int64(rep.Adversary.Schedules)
	}
	return c
}

// progState is what a run learns about one program.
type progState struct {
	// The first successful repair's source and counts; every later
	// repair, traced or not, must reproduce them.
	have   bool
	source string
	counts counts
	events int64 // probe capture events, traced runs only

	// Per untraced timed repair: wall time (ms), process CPU time (s,
	// every thread) and heap bytes allocated.
	times, cpu, alloc []float64
	layers            []*layerSample
	attempted         int
	failed            int
	ratio             float64 // work/span of the repaired program
}

type run struct {
	w     *workload
	seed  int64
	progs []*program
	st    []*progState

	// visit is the share of a pass one program's repeated repairs use.
	visit             time.Duration
	passes            int
	attempted, failed int
	notes             []string
	passNo            int64

	// Host references (hostref.go): when the last was taken, and every
	// reference's wall and CPU time (ms).
	lastRef         time.Time
	refWall, refCPU []float64
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: paper-suite, progen-commute or adversary-k16")
	seed := flag.Int64("seed", 1, "seed for the progen corpus and every pass order")
	seconds := flag.Int("seconds", 25, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1 runs traced passes and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pipebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		flag.Usage()
		return 2
	}

	r := &run{w: w, seed: *seed}
	var setups []float64
	for i := range setupReps {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if err := r.setUp(); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
		r.takeRef()
	}

	budget := time.Duration(*seconds) * time.Second
	r.visit = budget / time.Duration(targetPasses*len(r.progs))
	start := time.Now()
	for n := 0; ; n++ {
		if el := time.Since(start); n >= minPasses && el+el/time.Duration(n) > budget {
			break
		}
		r.pass(passTimed)
		if *traced == 1 {
			r.pass(passTraced)
		}
	}
	measured := time.Since(start)
	r.verify()
	if err := r.checkAcrossRuns(*traced == 1); err != nil {
		r.note("%v", err)
		r.failed++
	}

	var m map[string]metric
	if *traced == 1 {
		m = r.layerMetrics()
	} else {
		m = r.endToEndMetrics(median(setups))
	}
	r.summary(setups, measured, m)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setUp builds the corpus and makes one untimed warm-up pass. Repeated
// set-ups must rebuild the identical corpus.
func (r *run) setUp() error {
	progs, err := r.w.corpus(r.seed)
	if err != nil {
		return err
	}
	if r.progs == nil {
		r.progs = progs
		r.st = make([]*progState, len(progs))
		for i := range r.st {
			r.st[i] = &progState{}
		}
	} else if err := sameCorpus(r.progs, progs); err != nil {
		return err
	}
	r.pass(passWarmUp)
	return nil
}

func sameCorpus(a, b []*program) error {
	if len(a) != len(b) {
		return fmt.Errorf("nondeterministic corpus: %d programs, then %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			return fmt.Errorf("nondeterministic corpus: %s differs between set-ups", a[i].name)
		}
	}
	return nil
}

type passMode int

const (
	passWarmUp passMode = iota // untraced, times discarded
	passTimed                  // untraced, times recorded
	passTraced                 // layer by layer
)

// pass visits every program in an order drawn from the seed and the
// pass number. A timed visit repeats its program until r.visit has
// passed; the others repair it once.
func (r *run) pass(mode passMode) {
	order := rand.New(rand.NewSource(r.seed*1_000_003 + r.passNo)).Perm(len(r.progs))
	r.passNo++
	if mode == passTimed {
		r.passes++
	}
	for _, i := range order {
		switch mode {
		case passTraced:
			r.traced(i)
		case passWarmUp:
			r.untraced(i, false)
		default:
			for start := time.Now(); ; {
				r.maybeRef()
				if !r.untraced(i, true) || time.Since(start) >= r.visit {
					break
				}
			}
		}
	}
}

// untraced repairs one program through the public facade, as hjrepair
// does, timing Load through Source, and reports whether it passed the
// check.
func (r *run) untraced(i int, record bool) bool {
	prog, st := r.progs[i], r.st[i]
	runtime.GC()
	cpu0, alloc0 := cpuSeconds(), heapAllocBytes()
	t0 := time.Now()
	p, err := tdr.Load(prog.src)
	var rep *tdr.RepairReport
	if err == nil {
		rep, err = p.Repair(r.w.opts)
	}
	var src string
	if err == nil {
		src = p.Source()
	}
	ms := time.Since(t0).Seconds() * 1e3
	cpu, alloc := cpuSeconds()-cpu0, heapAllocBytes()-alloc0
	var out string
	var c counts
	if err == nil {
		out, c = rep.Output, reportCounts(rep)
	}
	if !r.check(i, err, out, src, c) {
		return false
	}
	if record {
		st.times = append(st.times, ms)
		st.cpu = append(st.cpu, cpu)
		st.alloc = append(st.alloc, float64(alloc))
	}
	return true
}

// traced repairs one program layer by layer (layers.go).
func (r *run) traced(i int) {
	st := r.st[i]
	runtime.GC()
	s, err := tracedRepair(r.progs[i].src, r.w.opts, r.w.fusedProbe)
	var out, src string
	var c counts
	if err == nil {
		out, src, c = s.output, s.source, s.counts()
	}
	if !r.check(i, err, out, src, c) {
		return
	}
	if st.events != 0 && s.events != st.events {
		r.fail(i, "nondeterminism: trace.events %d, earlier %d", s.events, st.events)
		return
	}
	st.events = s.events
	st.layers = append(st.layers, s)
}

// check judges one repair: it fails on an error, an output other than
// the reference, or a source or count that differs from the program's
// first repair.
func (r *run) check(i int, err error, out, src string, c counts) bool {
	prog, st := r.progs[i], r.st[i]
	st.attempted++
	r.attempted++
	switch {
	case err != nil:
		r.fail(i, "repair: %v", err)
	case out != prog.want:
		r.fail(i, "output %q, want %q", out, prog.want)
	case !st.have:
		st.have, st.source, st.counts = true, src, c
		return true
	case src != st.source:
		r.fail(i, "nondeterminism: repaired source differs from the first repair")
	case c != st.counts:
		r.fail(i, "nondeterminism: counts %+v, first repair %+v", c, st.counts)
	default:
		return true
	}
	return false
}

func (r *run) fail(i int, format string, args ...any) {
	r.st[i].failed++
	r.failed++
	r.note(r.progs[i].name+": "+format, args...)
}

func (r *run) note(format string, args ...any) {
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// verify checks each program's repaired source once, outside the timed
// region: it must re-parse, re-check and re-detect race-free with the
// reference output, and on the fixed rosters its span may not exceed
// the expert program's. A program that fails turns all its repairs
// into failed ones, since each produced this source.
func (r *run) verify() {
	for i, prog := range r.progs {
		st := r.st[i]
		if !st.have {
			continue
		}
		ratio, err := verifyRepaired(prog, st.source)
		if err != nil {
			r.failed += st.attempted - st.failed
			st.failed = st.attempted
			r.note("%s: repaired source: %v", prog.name, err)
			continue
		}
		st.ratio = ratio
	}
}

func verifyRepaired(prog *program, src string) (float64, error) {
	p, err := tdr.Load(src)
	if err != nil {
		return 0, err
	}
	rr, err := p.Detect(tdr.MRW)
	if err != nil {
		return 0, err
	}
	if len(rr.Races) > 0 {
		return 0, fmt.Errorf("re-detection found %d race(s)", len(rr.Races))
	}
	if rr.Output != prog.want {
		return 0, fmt.Errorf("re-detection printed %q, want %q", rr.Output, prog.want)
	}
	pl, err := p.CriticalPath()
	if err != nil {
		return 0, err
	}
	if prog.expertSpan > 0 && pl.Span > prog.expertSpan {
		return 0, fmt.Errorf("span %d exceeds the expert program's %d", pl.Span, prog.expertSpan)
	}
	return pl.Ratio(), nil
}

// ratios lists work/span of every verified repaired program.
func (r *run) ratios() []float64 {
	var xs []float64
	for _, st := range r.st {
		if st.ratio > 0 {
			xs = append(xs, st.ratio)
		}
	}
	return xs
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative count of heap bytes allocated.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
