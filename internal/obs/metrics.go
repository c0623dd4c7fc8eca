package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Updates are a single
// atomic add; safe from any goroutine including scheduler hot paths.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// zero, bucket i holds [2^(i-1), 2^i).
const histBuckets = 64 + 1

// Histogram is a power-of-two-bucketed distribution. Observe is one
// atomic add per call plus two for sum/count.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one sample (negative samples count as zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observation, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Buckets returns the per-bucket observation counts, trimmed of trailing
// zero buckets (bucket 0 holds zero, bucket i holds [2^(i-1), 2^i-1]).
func (h *Histogram) Buckets() []int64 {
	last := -1
	var raw [histBuckets]int64
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]int64, last+1)
	copy(out, raw[:last+1])
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded
// distribution by linear interpolation inside the log bucket holding the
// rank. With no samples it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	return BucketQuantile(h.Buckets(), q)
}

// BucketRange returns the value range [lo, hi] a power-of-two bucket
// index covers: bucket 0 is exactly zero, bucket i holds 2^(i-1)..2^i-1.
func BucketRange(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	hi = lo<<1 - 1
	return lo, hi
}

// BucketQuantile estimates the q-quantile of a power-of-two bucket count
// vector as produced by Histogram.Buckets (and by Registry.Delta for
// interval distributions). The target is the nearest-rank sample,
// ceil(q·n) (at least 1); inside its bucket the c samples are taken to
// sit at the midpoints of c equal slices of [lo, hi+1), so a bucket's
// only sample reads as the bucket's midpoint. Samples are integers, so
// the estimate is capped at hi, the largest value the bucket holds.
func BucketQuantile(buckets []int64, q float64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	var cum int64
	for i, c := range buckets {
		if cum+c >= rank {
			lo, hi := BucketRange(i)
			if lo == hi {
				return float64(lo)
			}
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return min(float64(lo)+frac*float64(hi+1-lo), float64(hi))
		}
		cum += c
	}
	lo, _ := BucketRange(len(buckets) - 1)
	return float64(lo)
}

// Registry holds named metrics. Registration takes a write lock once per
// metric name; subsequent lookups are read-locked and updates lock-free.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the instrumented
// packages (race, repair, sched, taskpar).
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Sample is one metric's snapshot value.
type Sample struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge", or "histogram"
	// Value is the counter/gauge value, or the histogram sum.
	Value int64 `json:"value"`
	// Count and Mean are set for histograms.
	Count int64   `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	// Buckets are the histogram's power-of-two bucket counts (bucket 0
	// holds zero, bucket i holds [2^(i-1), 2^i-1]), trimmed of trailing
	// zeros. P50/P95/P99 are quantile estimates interpolated from them.
	Buckets []int64 `json:"buckets,omitempty"`
	P50     float64 `json:"p50,omitempty"`
	P95     float64 `json:"p95,omitempty"`
	P99     float64 `json:"p99,omitempty"`
}

// fillQuantiles recomputes the quantile estimates from Buckets.
func (s *Sample) fillQuantiles() {
	s.P50 = BucketQuantile(s.Buckets, 0.50)
	s.P95 = BucketQuantile(s.Buckets, 0.95)
	s.P99 = BucketQuantile(s.Buckets, 0.99)
}

// histogramSample builds the snapshot form of one histogram.
func histogramSample(name string, h *Histogram) Sample {
	s := Sample{
		Name: name, Kind: "histogram",
		Value: h.Sum(), Count: h.Count(), Mean: h.Mean(),
		Buckets: h.Buckets(),
	}
	s.fillQuantiles()
	return s
}

// Snapshot returns all metrics, sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.histograms {
		out = append(out, histogramSample(name, h))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delta returns the current snapshot minus a previous one: counters and
// histogram sums/counts/buckets are differenced (so histogram quantiles
// describe only the interval's observations), gauges keep their latest
// value. Metrics absent from prev appear with their full current value.
func (r *Registry) Delta(prev []Sample) []Sample {
	base := make(map[string]Sample, len(prev))
	for _, s := range prev {
		base[s.Name] = s
	}
	cur := r.Snapshot()
	for i, s := range cur {
		b, ok := base[s.Name]
		if !ok || s.Kind == "gauge" {
			continue
		}
		cur[i].Value -= b.Value
		cur[i].Count -= b.Count
		if cur[i].Count > 0 {
			cur[i].Mean = float64(cur[i].Value) / float64(cur[i].Count)
		} else {
			cur[i].Mean = 0
		}
		if s.Kind == "histogram" {
			cur[i].Buckets = diffBuckets(s.Buckets, b.Buckets)
			cur[i].fillQuantiles()
		}
	}
	return cur
}

// diffBuckets subtracts prev bucket counts from cur, trimming trailing
// zeros. Negative cells (a registry reset between snapshots) clamp to 0.
func diffBuckets(cur, prev []int64) []int64 {
	out := make([]int64, len(cur))
	last := -1
	for i, c := range cur {
		if i < len(prev) {
			c -= prev[i]
		}
		if c < 0 {
			c = 0
		}
		out[i] = c
		if c != 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	return out[:last+1]
}

// WriteText renders the snapshot in aligned human-readable lines.
func WriteText(w io.Writer, samples []Sample) error {
	width := 0
	for _, s := range samples {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range samples {
		var err error
		switch s.Kind {
		case "histogram":
			_, err = fmt.Fprintf(w, "%-*s  %d (n=%d, mean=%.1f, p50=%.0f, p95=%.0f, p99=%.0f)\n",
				width, s.Name, s.Value, s.Count, s.Mean, s.P50, s.P95, s.P99)
		default:
			_, err = fmt.Fprintf(w, "%-*s  %d\n", width, s.Name, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

var expvarOnce sync.Once

// PublishExpvar exposes the default registry under the expvar key
// "obs_metrics" (served at /debug/vars). Safe to call more than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("obs_metrics", expvar.Func(func() any {
			return defaultRegistry.Snapshot()
		}))
	})
}
