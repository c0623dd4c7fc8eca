package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// buildTree opens a deterministic random span tree on tr and returns the
// number of spans created.
func buildTree(tr *Tracer, rng *rand.Rand, parent *Span, depth, maxDepth int) int {
	n := 0
	kids := 1 + rng.Intn(3)
	for i := 0; i < kids; i++ {
		var sp *Span
		name := fmt.Sprintf("phase-%d-%d", depth, i)
		if parent == nil {
			sp = tr.Start(name)
		} else {
			sp = parent.Child(name)
		}
		sp.SetInt("depth", int64(depth)).SetStr("kind", "test")
		n++
		if depth < maxDepth && rng.Intn(2) == 0 {
			n += buildTree(tr, rng, sp, depth+1, maxDepth)
		}
		sp.End()
	}
	return n
}

func TestSpanNestingWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		tr := New(WithoutAllocs())
		rng := rand.New(rand.NewSource(seed))
		want := buildTree(tr, rng, nil, 0, 4)
		if got := tr.OpenSpans(); got != 0 {
			t.Fatalf("seed %d: %d spans left open", seed, got)
		}
		recs := tr.Records()
		if len(recs) != want {
			t.Fatalf("seed %d: %d records, want %d", seed, len(recs), want)
		}
		if err := ValidateNesting(recs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestValidateNestingRejectsMalformed(t *testing.T) {
	overlap := []SpanRecord{
		{ID: 1, Name: "a", Start: 0, Dur: 10 * time.Millisecond},
		{ID: 2, Name: "b", Start: 5 * time.Millisecond, Dur: 10 * time.Millisecond},
	}
	if err := ValidateNesting(overlap); err == nil {
		t.Error("overlapping siblings accepted")
	}
	escape := []SpanRecord{
		{ID: 1, Name: "p", Start: 0, Dur: 5 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "c", Start: 1 * time.Millisecond, Dur: 10 * time.Millisecond},
	}
	if err := ValidateNesting(escape); err == nil {
		t.Error("child escaping parent accepted")
	}
	orphan := []SpanRecord{{ID: 2, Parent: 99, Name: "c", Start: 0, Dur: time.Millisecond}}
	if err := ValidateNesting(orphan); err == nil {
		t.Error("orphan parent accepted")
	}
}

// roundTripTracer builds a small fixed trace plus metrics for the
// exporter tests.
func roundTripTracer(t *testing.T) (*Tracer, []Sample) {
	t.Helper()
	tr := New()
	root := tr.Start("repair").SetInt("iterations", 2)
	det := root.Child("detect").SetInt("races", 5).SetStr("variant", "MRW")
	time.Sleep(time.Millisecond)
	det.End()
	place := root.Child("dp-place").SetInt("dp_states", 123)
	place.End()
	root.End()

	reg := NewRegistry()
	reg.Counter("repair.races").Add(5)
	reg.Gauge("race.sdpst_nodes").Set(42)
	reg.Histogram("repair.graph_size").Observe(7)
	return tr, reg.Snapshot()
}

func TestJSONLRoundTrip(t *testing.T) {
	tr, samples := roundTripTracer(t)
	recs := tr.Records()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs, samples); err != nil {
		t.Fatal(err)
	}
	gotRecs, gotSamples, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("%d spans round-tripped, want %d", len(gotRecs), len(recs))
	}
	for i, r := range recs {
		g := gotRecs[i]
		if g.Name != r.Name || g.ID != r.ID || g.Parent != r.Parent {
			t.Errorf("span %d: got %+v, want %+v", i, g, r)
		}
		if len(g.Attrs) != len(r.Attrs) {
			t.Errorf("span %d: %d attrs, want %d", i, len(g.Attrs), len(r.Attrs))
		}
		// Timestamps survive at microsecond precision.
		if d := g.Start - r.Start; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("span %d: start drifted %v", i, d)
		}
	}
	if len(gotSamples) != len(samples) {
		t.Fatalf("%d samples round-tripped, want %d", len(gotSamples), len(samples))
	}
	for i, s := range samples {
		if !reflect.DeepEqual(gotSamples[i], s) {
			t.Errorf("sample %d: got %+v, want %+v", i, gotSamples[i], s)
		}
	}
	if err := ValidateNesting(gotRecs); err != nil {
		t.Errorf("re-parsed spans malformed: %v", err)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr, samples := roundTripTracer(t)
	recs := tr.Records()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs, samples); err != nil {
		t.Fatal(err)
	}
	gotRecs, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("%d X events, want %d", len(gotRecs), len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range gotRecs {
		byName[r.Name] = r
	}
	for _, want := range []string{"repair", "detect", "dp-place"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("phase %q missing from chrome trace", want)
		}
	}
	det := byName["detect"]
	attrs := map[string]any{}
	for _, a := range det.Attrs {
		attrs[a.Key] = a.Value()
	}
	if attrs["races"] != int64(5) || attrs["variant"] != "MRW" {
		t.Errorf("detect attrs did not round-trip: %v", attrs)
	}
	if det.Dur < time.Millisecond {
		t.Errorf("detect duration %v lost", det.Dur)
	}
}

func TestDeltaAndText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(10)
	before := reg.Snapshot()
	reg.Counter("a").Add(7)
	reg.Gauge("g").Set(3)
	d := reg.Delta(before)
	got := map[string]int64{}
	for _, s := range d {
		got[s.Name] = s.Value
	}
	if got["a"] != 7 || got["g"] != 3 {
		t.Errorf("delta = %v, want a=7 g=3", got)
	}
	var buf strings.Builder
	if err := WriteText(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a  7") {
		t.Errorf("text output %q missing counter", buf.String())
	}
}

func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	h := Default().Histogram("test.zero_alloc_ns")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("detect").SetInt("races", 3).SetStr("variant", "MRW")
		child := sp.Child("dp-place")
		child.Rename("verify").End()
		sp.End()
		h.Observe(17)
	})
	if allocs != 0 {
		t.Errorf("disabled tracer + histogram: %v allocs/op, want 0", allocs)
	}
	if tr.Records() != nil || tr.OpenSpans() != 0 || tr.Enabled() {
		t.Error("nil tracer leaked state")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Buckets() != nil {
		t.Error("empty histogram should report zero quantiles and nil buckets")
	}
	// Uniform 1..1000: quantile estimates should land within one power-of
	// -two bucket of the exact rank.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 500}, {0.95, 950}, {0.99, 990}, {1, 1000},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("q%.2f = %.1f, want within a bucket of %.0f", tc.q, got, tc.want)
		}
	}
	// Quantiles must be monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone: q%.2f=%.1f < %.1f", q, cur, prev)
		}
		prev = cur
	}
	// All mass in one value: every quantile is exact.
	var h2 Histogram
	for i := 0; i < 10; i++ {
		h2.Observe(64)
	}
	if got := h2.Quantile(0.99); got < 64 || got > 127 {
		t.Errorf("single-bucket q99 = %.1f, want in [64,127]", got)
	}
	if got := h2.Mean(); got != 64 {
		t.Errorf("mean = %v, want 64", got)
	}
}

// Small samples: the nearest rank ceil(q·n) picks the sample, and a
// bucket's only sample reads as the bucket's midpoint.
func TestBucketQuantileSmallSamples(t *testing.T) {
	for _, tc := range []struct {
		samples []int64
		q       float64
		lo, hi  float64
	}{
		{[]int64{3, 1000}, 0.95, 512, 1023},
		{[]int64{3, 1000}, 0.50, 2, 3},
		{[]int64{700}, 0.50, 768, 768},
		{[]int64{700}, 0, 768, 768},
		{[]int64{0}, 0.99, 0, 0},
		{[]int64{1, 1, 1}, 0.50, 1, 1},
		{[]int64{5, 6}, 1, 6, 8},
	} {
		var h Histogram
		for _, v := range tc.samples {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got < tc.lo || got > tc.hi {
			t.Errorf("q%.2f of %v = %.1f, want in [%.0f, %.0f]", tc.q, tc.samples, got, tc.lo, tc.hi)
		}
	}
}

func TestSnapshotHistogramSample(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test.lat_ns")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("%d samples, want 1", len(snap))
	}
	s := snap[0]
	if s.Kind != "histogram" || s.Count != 100 || s.Value != 5050 {
		t.Fatalf("sample = %+v", s)
	}
	if len(s.Buckets) == 0 || s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
		t.Errorf("quantiles not filled or not ordered: %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
}

func TestDeltaHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test.lat_ns")
	for i := 0; i < 50; i++ {
		h.Observe(1000) // slow before-phase
	}
	before := reg.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(2) // fast after-phase
	}
	d := reg.Delta(before)
	if len(d) != 1 {
		t.Fatalf("%d delta samples, want 1", len(d))
	}
	s := d[0]
	if s.Count != 50 || s.Value != 100 {
		t.Fatalf("delta sample = %+v, want count=50 sum=100", s)
	}
	// The interval quantiles must describe only the fast phase.
	if s.P99 > 3 {
		t.Errorf("interval p99 = %v includes pre-interval observations", s.P99)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("repair.iterations").Add(3)
	reg.Gauge("race.sdpst_nodes").Set(42)
	h := reg.Histogram("repair.stage_detect_ns")
	h.Observe(0)
	h.Observe(5)
	h.Observe(100)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE repair_iterations counter",
		"repair_iterations 3",
		"# TYPE race_sdpst_nodes gauge",
		"race_sdpst_nodes 42",
		"# TYPE repair_stage_detect_ns histogram",
		`repair_stage_detect_ns_bucket{le="0"} 1`,
		`repair_stage_detect_ns_bucket{le="7"} 2`,
		`repair_stage_detect_ns_bucket{le="127"} 3`,
		`repair_stage_detect_ns_bucket{le="+Inf"} 3`,
		"repair_stage_detect_ns_sum 105",
		"repair_stage_detect_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	lastCum := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "repair_stage_detect_ns_bucket") {
			continue
		}
		var cum int64
		fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum)
		if cum < lastCum {
			t.Errorf("bucket counts decrease at %q", line)
		}
		lastCum = cum
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"repair.dp_states": "repair_dp_states",
		"vet.diag.static":  "vet_diag_static",
		"9lives":           "_9lives",
		"ok_name:with":     "ok_name:with",
		"spaced out":       "spaced_out",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSampler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.ticks").Add(1)
	var buf bytes.Buffer
	s := StartSampler(&buf, 10*time.Millisecond, reg)
	time.Sleep(35 * time.Millisecond)
	reg.Counter("test.ticks").Add(1)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	elapsed, series, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 2 {
		t.Fatalf("%d samples, want >= 2 (ticks plus final flush)", len(series))
	}
	for i := 1; i < len(elapsed); i++ {
		if elapsed[i] < elapsed[i-1] {
			t.Errorf("elapsed not monotone at %d: %v", i, elapsed)
		}
	}
	last := series[len(series)-1]
	if len(last) != 1 || last[0].Name != "test.ticks" || last[0].Value != 2 {
		t.Errorf("final sample = %+v, want test.ticks=2", last)
	}
}

func TestMetricNameConvention(t *testing.T) {
	for name := range KnownMetrics {
		if !MetricNameRE.MatchString(name) {
			t.Errorf("manifest name %q violates convention %s", name, MetricNameRE)
		}
	}
	for _, bad := range []string{"vet.diag.static-race", "Repair.iterations", "repair", "repair..x"} {
		if MetricNameRE.MatchString(bad) {
			t.Errorf("convention accepted %q", bad)
		}
	}
}

func TestDebugEndpoint(t *testing.T) {
	Default().Counter("test.debug_endpoint").Inc()
	Default().Histogram("test.debug_endpoint_ns").Observe(250)
	addr, srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wantType := map[string]string{
		"/debug/vars":    "application/json",
		"/debug/metrics": "text/plain; charset=utf-8",
		"/debug/prom":    PromContentType,
		"/debug/pprof/":  "text/html",
	}
	for _, path := range []string{"/debug/vars", "/debug/metrics", "/debug/prom", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType[path]) {
			t.Errorf("GET %s: content type %q, want prefix %q", path, ct, wantType[path])
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if path == "/debug/metrics" && !strings.Contains(body.String(), "test.debug_endpoint") {
			t.Errorf("/debug/metrics missing registered counter:\n%s", body.String())
		}
		if path == "/debug/vars" && !strings.Contains(body.String(), "obs_metrics") {
			t.Errorf("/debug/vars missing obs_metrics key")
		}
		if path == "/debug/prom" {
			out := body.String()
			if !strings.Contains(out, "test_debug_endpoint 1") {
				t.Errorf("/debug/prom missing counter:\n%s", out)
			}
			if !strings.Contains(out, `test_debug_endpoint_ns_bucket{le="255"} 1`) ||
				!strings.Contains(out, `test_debug_endpoint_ns_bucket{le="+Inf"} 1`) {
				t.Errorf("/debug/prom missing histogram buckets:\n%s", out)
			}
		}
	}
	if err := ShutdownDebug(srv, time.Second); err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Error("server still serving after ShutdownDebug")
	}
}

func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("detect").SetInt("races", int64(i))
		sp.Child("dp-place").End()
		sp.End()
	}
}

func BenchmarkTracerEnabled(b *testing.B) {
	tr := New(WithoutAllocs())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("detect").SetInt("races", int64(i))
		sp.Child("dp-place").End()
		sp.End()
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := Default().Counter("test.bench_counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
