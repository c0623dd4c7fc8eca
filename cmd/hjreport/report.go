package main

import (
	_ "embed"
	"fmt"
	"html/template"
	"io"
	"sort"
	"strings"
	"time"

	"finishrepair/internal/obs"
	"finishrepair/internal/obs/provenance"
)

//go:embed report.tmpl
var reportTmpl string

// spanRow is one bar of the flame chart: the span's name, its nesting
// depth, and its horizontal placement as percentages of the run's wall
// clock.
type spanRow struct {
	Name     string
	Detail   string // duration + attrs, shown in the tooltip and the row label
	Depth    int
	LeftPct  float64
	WidthPct float64
	Color    string
}

// bar is one bucket of a histogram card.
type bar struct {
	Label string // the bucket's value range, e.g. "4–7"
	Count int64
	Pct   float64 // width relative to the fullest bucket
}

// histView is one per-stage latency (or size) distribution card.
type histView struct {
	Name  string
	Count int64
	Mean  string
	P50   string
	P95   string
	P99   string
	Bars  []bar
}

// counterRow is one line of the counters table.
type counterRow struct {
	Name  string
	Kind  string
	Value int64
}

// groupView is one NS-LCA race group of the race table.
type groupView struct {
	Iteration int
	Status    string // "applied", "applied (fallback)", "deferred"
	provenance.Group
}

// finishView is one row of the scope-placement timeline. The strategy,
// commute, NS-LCA, fallback and DP-state cells show First, the first
// group that chose the scope; More counts the others, and Races sums the
// races of them all.
type finishView struct {
	provenance.FinishEntry
	First     provenance.Group
	More      int
	Races     int
	KindLabel string // "finish" or "isolated"
	SpanDelta int64
	ParBefore string
	ParAfter  string
}

// chip is one headline stat of the summary strip.
type chip struct {
	Label string
	Value string
	Bad   bool
}

// reportData is the fully precomputed view model the template renders;
// the template itself contains no logic beyond ranging and conditionals.
type reportData struct {
	Title     string
	Generated string
	Explain   *provenance.Explain
	Chips     []chip
	Finishes  []finishView
	Groups    []groupView
	Gaps      []string
	Witnesses []provenance.WitnessRec
	Adversary *provenance.AdversaryRec
	Verdicts  []provenance.GapVerdictRec
	Spans     []spanRow
	Total     string
	Hists     []histView
	Counters  []counterRow
}

var flamePalette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#b07aa1", "#edc948",
}

// buildReport precomputes the whole view model from whichever inputs
// were provided; nil/empty inputs simply omit their sections.
func buildReport(title string, ex *provenance.Explain, recs []obs.SpanRecord, samples []obs.Sample) *reportData {
	d := &reportData{
		Title:     title,
		Generated: time.Now().Format(time.RFC1123),
		Explain:   ex,
	}
	if ex != nil {
		buildExplain(d, ex)
	}
	buildSpans(d, recs)
	buildMetrics(d, samples)
	return d
}

func buildExplain(d *reportData, ex *provenance.Explain) {
	races := 0
	for _, it := range ex.Iterations {
		for _, g := range it.Groups {
			races += g.Races()
		}
	}
	d.Chips = append(d.Chips,
		chip{Label: "races found", Value: fmt.Sprint(races)},
		chip{Label: "finishes inserted", Value: fmt.Sprint(len(ex.Finishes))},
		chip{Label: "iterations", Value: fmt.Sprint(len(ex.Iterations))},
	)
	if ex.CPLBefore.Span > 0 {
		d.Chips = append(d.Chips, chip{
			Label: "parallelism",
			Value: fmt.Sprintf("%.2f → %.2f", ex.CPLBefore.Parallelism(), ex.CPLAfter.Parallelism()),
		})
	}
	if ex.Converged {
		d.Chips = append(d.Chips, chip{Label: "status", Value: "race-free"})
	} else {
		d.Chips = append(d.Chips, chip{Label: "status", Value: "NOT converged", Bad: true})
	}
	if ex.Degraded != "" {
		d.Chips = append(d.Chips, chip{Label: "degraded", Value: ex.Degraded, Bad: true})
	}

	isolated, confirmed := 0, 0
	for _, f := range ex.Finishes {
		kind := f.Finish.Kind
		if kind == "" {
			kind = "finish"
		}
		if kind == "isolated" {
			isolated++
		}
		v := finishView{
			FinishEntry: f,
			KindLabel:   kind,
			SpanDelta:   f.CPLAfter.Span - f.CPLBefore.Span,
			ParBefore:   fmt.Sprintf("%.2f", f.CPLBefore.Parallelism()),
			ParAfter:    fmt.Sprintf("%.2f", f.CPLAfter.Parallelism()),
		}
		if gs := ex.GroupsOf(f); len(gs) > 0 {
			v.First, v.More = *gs[0], len(gs)-1
			for _, g := range gs {
				v.Races += g.Races()
			}
		}
		if v.First.CommuteProbe == "confirmed" {
			confirmed++
		}
		d.Finishes = append(d.Finishes, v)
	}
	if isolated > 0 {
		d.Chips = append(d.Chips, chip{Label: "isolated inserted", Value: fmt.Sprint(isolated)})
	}
	if confirmed > 0 {
		d.Chips = append(d.Chips, chip{Label: "commute probes confirmed", Value: fmt.Sprint(confirmed)})
	}
	for _, it := range ex.Iterations {
		for _, g := range it.Groups {
			status := "deferred"
			switch {
			case g.Applied && g.Fallback:
				status = "applied (fallback)"
			case g.Applied:
				status = "applied"
			}
			d.Groups = append(d.Groups, groupView{Iteration: it.N, Status: status, Group: g})
		}
	}
	d.Gaps = ex.CoverageGaps
	d.Witnesses = ex.Witnesses
	d.Adversary = ex.Adversary
	d.Verdicts = ex.GapVerdicts
	if len(ex.Witnesses) > 0 {
		d.Chips = append(d.Chips, chip{Label: "witnesses", Value: fmt.Sprint(len(ex.Witnesses))})
	}
	if ex.Adversary != nil {
		v := fmt.Sprintf("%d/%d schedules passed", ex.Adversary.Schedules-ex.Adversary.Failures, ex.Adversary.Schedules)
		d.Chips = append(d.Chips, chip{Label: "adversary", Value: v, Bad: ex.Adversary.Failures > 0})
	}
}

func buildSpans(d *reportData, recs []obs.SpanRecord) {
	if len(recs) == 0 {
		return
	}
	byID := make(map[int64]obs.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	depth := func(r obs.SpanRecord) int {
		n := 0
		for r.Parent != 0 {
			parent, ok := byID[r.Parent]
			if !ok || n > len(recs) {
				break
			}
			r, n = parent, n+1
		}
		return n
	}
	start, end := recs[0].Start, recs[0].Start+recs[0].Dur
	for _, r := range recs {
		if r.Start < start {
			start = r.Start
		}
		if e := r.Start + r.Dur; e > end {
			end = e
		}
	}
	total := end - start
	if total <= 0 {
		total = 1
	}
	sorted := append([]obs.SpanRecord(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Dur > sorted[j].Dur
	})
	for _, r := range sorted {
		dep := depth(r)
		detail := r.Dur.Round(time.Microsecond).String()
		if r.AllocBytes > 0 {
			detail += fmt.Sprintf(" %dB", r.AllocBytes)
		}
		for _, a := range r.Attrs {
			detail += fmt.Sprintf(" %s=%v", a.Key, a.Value())
		}
		d.Spans = append(d.Spans, spanRow{
			Name:     r.Name,
			Detail:   detail,
			Depth:    dep,
			LeftPct:  100 * float64(r.Start-start) / float64(total),
			WidthPct: 100 * float64(r.Dur) / float64(total),
			Color:    flamePalette[dep%len(flamePalette)],
		})
	}
	d.Total = total.Round(time.Microsecond).String()
}

func buildMetrics(d *reportData, samples []obs.Sample) {
	for _, s := range samples {
		if s.Kind != "histogram" {
			if s.Value != 0 {
				d.Counters = append(d.Counters, counterRow{Name: s.Name, Kind: s.Kind, Value: s.Value})
			}
			continue
		}
		if s.Count == 0 {
			continue
		}
		h := histView{
			Name:  s.Name,
			Count: s.Count,
			Mean:  fmtQuantile(s.Name, s.Mean),
			P50:   fmtQuantile(s.Name, s.P50),
			P95:   fmtQuantile(s.Name, s.P95),
			P99:   fmtQuantile(s.Name, s.P99),
		}
		var max int64
		for _, c := range s.Buckets {
			if c > max {
				max = c
			}
		}
		for i, c := range s.Buckets {
			if c == 0 {
				continue
			}
			lo, hi := obs.BucketRange(i)
			label := fmt.Sprint(lo)
			if hi != lo {
				label = fmt.Sprintf("%d–%d", lo, hi)
			}
			h.Bars = append(h.Bars, bar{Label: label, Count: c, Pct: 100 * float64(c) / float64(max)})
		}
		d.Hists = append(d.Hists, h)
	}
	sort.Slice(d.Hists, func(i, j int) bool { return d.Hists[i].Name < d.Hists[j].Name })
	sort.Slice(d.Counters, func(i, j int) bool { return d.Counters[i].Name < d.Counters[j].Name })
}

// fmtQuantile renders a quantile estimate, as a duration for the *_ns
// latency metrics and as a plain count otherwise.
func fmtQuantile(name string, v float64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.0f", v)
}

var tmpl = template.Must(template.New("report").Parse(reportTmpl))

// render writes the self-contained HTML report. The template embeds all
// styling inline; the output references no external assets.
func render(w io.Writer, d *reportData) error {
	return tmpl.Execute(w, d)
}
