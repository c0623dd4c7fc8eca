package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"finishrepair/internal/bench"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// medians returns each program's median of f over its untraced timed
// repairs, for the programs with at least one.
func (r *run) medians(f func(*progState) []float64) []float64 {
	var xs []float64
	for _, st := range r.st {
		if v := f(st); len(v) > 0 {
			xs = append(xs, median(v))
		}
	}
	return xs
}

func wallMs(st *progState) []float64 { return st.times }

// endToEndMetrics are one pass's worth of each measure: sums of
// per-program medians, and the geomean and percentiles over them. Every
// time is scaled to the nominal host speed (hostref.go); the counts are
// not.
func (r *run) endToEndMetrics(setup float64) map[string]metric {
	ws := r.wallScale()
	med := r.medians(wallMs)
	return map[string]metric{
		"setup_s":             {setup * ws, "s"},
		"suite_s":             {sum(med) * ws / 1e3, "s"},
		"repair_ms_geomean":   {geomean(med) * ws, "ms"},
		"repair_ms_p50":       {percentile(med, 0.50) * ws, "ms"},
		"repair_ms_p90":       {percentile(med, 0.90) * ws, "ms"},
		"cpu_s":               {sum(r.medians(func(st *progState) []float64 { return st.cpu })) * r.cpuScale(), "s"},
		"alloc_mb":            {sum(r.medians(func(st *progState) []float64 { return st.alloc })) / 1e6, "MB"},
		"parallelism_geomean": {geomean(r.ratios()), "ratio"},
	}
}

// layerSum sums over programs each program's median of f over its
// traced samples.
func (r *run) layerSum(f func(*layerSample) float64) float64 {
	var t float64
	for _, st := range r.st {
		if len(st.layers) == 0 {
			continue
		}
		xs := make([]float64, len(st.layers))
		for k, s := range st.layers {
			xs[k] = f(s)
		}
		t += median(xs)
	}
	return t
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTimes are the per-layer time rows, in ms: the pipeline rows
// partition a traced repair (with tdr.unattributed_ms); the probe rows
// (trace.capture_ms, race.analyze_ms, race.fused_ms) are timed on
// separate calls after it.
var layerTimes = []struct {
	name string
	f    func(*layerSample) time.Duration
}{
	{"lang.parse_ms", func(s *layerSample) time.Duration { return s.parse }},
	{"lang.sem_ms", func(s *layerSample) time.Duration { return s.sem }},
	{"lang.print_ms", func(s *layerSample) time.Duration { return s.print }},
	{"race.detect_ms", func(s *layerSample) time.Duration { return s.detect }},
	{"race.verify_ms", func(s *layerSample) time.Duration { return s.verify }},
	{"race.trace_io_ms", func(s *layerSample) time.Duration { return s.traceIO }},
	{"repair.place_ms", func(s *layerSample) time.Duration { return s.place }},
	{"repair.rewrite_ms", func(s *layerSample) time.Duration { return s.rewrite }},
	{"adversary.oracle_ms", func(s *layerSample) time.Duration { return s.oracle }},
	{"adversary.verify_ms", func(s *layerSample) time.Duration { return s.advVerify }},
	{"tdr.unattributed_ms", func(s *layerSample) time.Duration { return s.e2e - s.attributed() }},
	{"tdr.traced_suite_ms", func(s *layerSample) time.Duration { return s.e2e }},
	{"trace.capture_ms", func(s *layerSample) time.Duration { return s.capture }},
	{"race.analyze_ms", func(s *layerSample) time.Duration { return s.analyze }},
	{"race.fused_ms", func(s *layerSample) time.Duration { return s.fused }},
}

// layerCounts are the per-layer count rows, summed over the corpus.
var layerCounts = []struct {
	name, unit string
	f          func(*layerSample) int64
}{
	{"trace.events", "count", func(s *layerSample) int64 { return s.events }},
	{"race.races", "count", func(s *layerSample) int64 { return s.races }},
	{"race.sdpst_nodes", "count", func(s *layerSample) int64 { return s.sdpstNodes }},
	{"race.shadow_cells", "count", func(s *layerSample) int64 { return s.shadowCells }},
	{"race.trace_bytes", "B", func(s *layerSample) int64 { return s.traceBytes }},
	{"race.dual_queries", "count", func(s *layerSample) int64 { return s.dualQueries }},
	{"race.stream_chunks", "count", func(s *layerSample) int64 { return s.streamChunks }},
	{"repair.dp_states", "count", func(s *layerSample) int64 { return s.dpStates }},
	{"repair.groups", "count", func(s *layerSample) int64 { return s.groups }},
	{"repair.iterations", "count", func(s *layerSample) int64 { return s.iterations }},
	{"repair.strategy_probes", "count", func(s *layerSample) int64 { return s.strategyProbes }},
	{"repair.isolated_probes", "count", func(s *layerSample) int64 { return s.isolatedProbes }},
	{"repair.isolated_inserted", "count", func(s *layerSample) int64 { return s.isolatedInserted }},
	{"repair.lock_classes", "count", func(s *layerSample) int64 { return s.lockClasses }},
	{"analysis.commute_verdicts", "count", func(s *layerSample) int64 { return s.commuteVerdicts }},
	{"analysis.commute_confirmed", "count", func(s *layerSample) int64 { return s.commuteConfirmed }},
	{"adversary.schedules", "count", func(s *layerSample) int64 { return s.schedules }},
	{"adversary.yields", "count", func(s *layerSample) int64 { return s.yields }},
}

func (r *run) layerMetrics() map[string]metric {
	m := map[string]metric{}
	for _, l := range layerTimes {
		m[l.name] = metric{r.layerSum(func(s *layerSample) float64 { return ms(l.f(s)) }), "ms"}
	}
	for _, l := range layerCounts {
		m[l.name] = metric{r.layerSum(func(s *layerSample) float64 { return float64(l.f(s)) }), l.unit}
	}
	m["trace.capture_ns_per_event"] = metric{ratio(m["trace.capture_ms"].Value*1e6, m["trace.events"].Value), "ns"}
	m["repair.ns_per_dp_state"] = metric{ratio(m["repair.place_ms"].Value*1e6, m["repair.dp_states"].Value), "ns"}
	m["adversary.ms_per_schedule"] = metric{ratio(m["adversary.verify_ms"].Value, m["adversary.schedules"].Value), "ms"}
	untraced := sum(r.medians(wallMs))
	m["obs.trace_overhead_pct"] = metric{100 * (ratio(m["tdr.traced_suite_ms"].Value, untraced) - 1), "%"}
	for _, b := range bench.All() {
		m["program."+slug(b.Name)+"_ms"] = metric{0, "ms"}
	}
	for i, prog := range r.progs {
		if r.w.fixed && len(r.st[i].times) > 0 {
			m["program."+prog.name+"_ms"] = metric{median(r.st[i].times) * r.wallScale(), "ms"}
		}
	}
	return m
}

// summary prints the run's human-readable report on stderr: sample
// counts, per-program medians on the fixed rosters, the layer shares of
// a traced run, and any failures.
func (r *run) summary(setups []float64, measured time.Duration, m map[string]metric) {
	w := os.Stderr
	minS, maxS := -1, 0
	for _, st := range r.st {
		n := len(st.times)
		if minS < 0 || n < minS {
			minS = n
		}
		maxS = max(maxS, n)
	}
	med := r.medians(wallMs)
	fmt.Fprintf(w, "pipebench %s seed %d: %d programs, %d passes in %.1fs, %d-%d samples per program median; set-ups %.3v s (raw)\n",
		r.w.name, r.seed, len(r.progs), r.passes, measured.Seconds(), minS, maxS, setups)
	fmt.Fprintf(w, "host reference: %d runs, median %.3f ms, quartiles %.3f-%.3f ms; times scale by %.4f to a %.1f ms reference; raw suite %.3f s\n",
		len(r.refWall), median(r.refWall), percentile(r.refWall, 0.25), percentile(r.refWall, 0.75), r.wallScale(), refNominalMs, sum(med)/1e3)
	fmt.Fprintf(w, "percentiles over %d per-program medians: p50 has %d beyond it, p90 %d\n",
		len(med), beyond(len(med), 0.50), beyond(len(med), 0.90))
	if r.w.fixed {
		var expert []float64
		for i, prog := range r.progs {
			fmt.Fprintf(w, "  %-14s %9.3f ms raw  (%d samples)\n", prog.name, median(r.st[i].times), len(r.st[i].times))
			expert = append(expert, prog.expertRatio)
		}
		fmt.Fprintf(w, "parallelism geomean: repaired %.6f, expert programs %.6f\n", geomean(r.ratios()), geomean(expert))
	}
	if e2e := m["tdr.traced_suite_ms"].Value; e2e > 0 {
		fmt.Fprintf(w, "layer shares of the traced suite (%.1f ms):", e2e)
		for _, l := range layerTimes {
			if v := m[l.name].Value; v != 0 && l.name != "tdr.traced_suite_ms" {
				fmt.Fprintf(w, " %s %.1f%%", strings.TrimSuffix(l.name, "_ms"), 100*v/e2e)
			}
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %16.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "FAIL %s\n", n)
	}
}

// runRecord is what one run saw of the deterministic counts; runs of
// the same build, workload and corpus must agree on all of it.
type runRecord struct {
	Counts      map[string]counts  `json:"counts"`
	Events      map[string]int64   `json:"events,omitempty"`
	Parallelism map[string]float64 `json:"parallelism"`
}

// checkAcrossRuns compares this run's counts with those an earlier run
// of the same binary, workload and corpus left under .bench_build in
// the working directory, then records the union. The progen corpus
// depends on the seed; the fixed rosters do not.
func (r *run) checkAcrossRuns(traced bool) error {
	rec := runRecord{Counts: map[string]counts{}, Parallelism: map[string]float64{}}
	if traced {
		rec.Events = map[string]int64{}
	}
	for i, prog := range r.progs {
		st := r.st[i]
		if !st.have || st.failed > 0 {
			continue
		}
		rec.Counts[prog.name] = st.counts
		rec.Parallelism[prog.name] = st.ratio
		if traced {
			rec.Events[prog.name] = st.events
		}
	}
	exe, err := exeHash()
	if err != nil {
		return fmt.Errorf("cross-run check: %w", err)
	}
	corpus := "fixed"
	if !r.w.fixed {
		corpus = fmt.Sprint("seed", r.seed)
	}
	dir := filepath.Join(".bench_build", "pipebench-runs")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", r.w.name, corpus, exe))
	var old runRecord
	switch b, err := os.ReadFile(path); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return fmt.Errorf("cross-run check: %w", err)
	default:
		if err := json.Unmarshal(b, &old); err != nil {
			return fmt.Errorf("cross-run check: %s: %w", path, err)
		}
		if err := compareRuns(old, &rec); err != nil {
			return fmt.Errorf("nondeterminism across runs: %w", err)
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cross-run check: %w", err)
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("cross-run check: %w", err)
	}
	return os.Rename(tmp, path)
}

// compareRuns fails on any program both runs measured with different
// values, and merges old's entries missing from cur into cur.
func compareRuns(old runRecord, cur *runRecord) error {
	for name, c := range old.Counts {
		if got, ok := cur.Counts[name]; !ok {
			cur.Counts[name] = c
		} else if got != c {
			return fmt.Errorf("%s: counts %+v, earlier run %+v", name, got, c)
		}
	}
	for name, p := range old.Parallelism {
		if got, ok := cur.Parallelism[name]; !ok {
			cur.Parallelism[name] = p
		} else if got != p {
			return fmt.Errorf("%s: work/span %v, earlier run %v", name, got, p)
		}
	}
	for name, e := range old.Events {
		if cur.Events == nil {
			cur.Events = map[string]int64{}
		}
		if got, ok := cur.Events[name]; !ok {
			cur.Events[name] = e
		} else if got != e {
			return fmt.Errorf("%s: trace.events %d, earlier run %d", name, got, e)
		}
	}
	return nil
}

// exeHash names the running binary by a prefix of its SHA-256, so
// records of different builds never meet.
func exeHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
