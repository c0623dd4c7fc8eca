package race

import (
	"finishrepair/internal/dpst"
	"finishrepair/internal/trace"
)

// raceKey is the identity the reference dedupe keys its map by.
type raceKey struct {
	loc      uint64
	src, dst int32
	kind     Kind
}

// resolvedReference is the map-based resolve/dedupe that the one-pass
// table in recorder.resolved replaced, kept as its oracle: a first pass
// over the raw log counts the distinct keys (taken after resolution), a
// second emits the first occurrence of each into an exactly-sized arena.
// It reads the log without modifying it.
func resolvedReference(rc *recorder) []*Race {
	var raw []*Race
	for _, chunk := range rc.chunks() {
		for i := range chunk {
			raw = append(raw, &chunk[i])
		}
	}
	seen := make(map[raceKey]int32, len(raw))
	for _, r := range raw {
		k := raceKey{loc: r.Loc, src: int32(r.Src.Resolve().ID), dst: int32(r.Dst.Resolve().ID), kind: r.Kind}
		seen[k] = -1
	}
	arena := make([]Race, 0, len(seen))
	for _, r := range raw {
		src, dst := r.Src.Resolve(), r.Dst.Resolve()
		k := raceKey{loc: r.Loc, src: int32(src.ID), dst: int32(dst.ID), kind: r.Kind}
		if seen[k] >= 0 {
			continue
		}
		seen[k] = int32(len(arena))
		arena = append(arena, Race{Src: src, Dst: dst, Loc: r.Loc, Kind: r.Kind, SrcSite: r.SrcSite, DstSite: r.DstSite})
	}
	out := make([]*Race, len(arena))
	for i := range arena {
		out[i] = &arena[i]
	}
	return out
}

// ReferenceRaces runs the reference dedupe over det's raw report log.
// Call it before det.Races(), which writes resolved endpoints back into
// the log.
func ReferenceRaces(det Detector) []*Race { return resolvedReference(det.log()) }

// RawReports is the number of raw reports behind det's races.
func RawReports(det Detector) int { return det.log().len() }

// ReportLog is a bare race report log, for driving the dedupe with
// synthetic raw streams.
type ReportLog struct{ rec recorder }

// Report logs one raw report.
func (l *ReportLog) Report(src, dst *dpst.Node, loc uint64, kind Kind, srcSite, dstSite trace.Site) {
	l.rec.report(src, dst, loc, kind, srcSite, dstSite)
}

// Races resolves and deduplicates the log.
func (l *ReportLog) Races() []*Race { return l.rec.resolved() }

// Reference runs the reference dedupe over the log.
func (l *ReportLog) Reference() []*Race { return resolvedReference(&l.rec) }

// Len is the number of raw reports logged.
func (l *ReportLog) Len() int { return l.rec.len() }

// Chunks is the number of chunks the log occupies.
func (l *ReportLog) Chunks() int { return len(l.rec.chunks()) }
