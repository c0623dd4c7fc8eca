package race

import (
	"math/bits"

	"finishrepair/internal/dpst"
	"finishrepair/internal/trace"
)

// ----------------------------------------------------------------------
// Race report log.
//
// Detectors report every racing access pair they find; the same race can
// be reported more than once, because steps reported separately may be
// collapsed into one maximal step later in the replay. The recorder keeps
// the raw reports in an append-only chunked log and resolves and
// deduplicates them in one walk when the races are asked for, so the cost
// of reporting follows the distinct races rather than the raw stream.

// reportChunkMax caps a log chunk's capacity. Chunks start at one record
// and double up to this cap; a full chunk is sealed and never copied. It
// is a power of two so a log position packs into one uint32 (logRef).
const (
	reportChunkBits = 13
	reportChunkMax  = 1 << reportChunkBits
)

// recorder is the raw report log of one detector.
type recorder struct {
	sealed  [][]Race // full chunks, in report order
	sealedN int      // records in sealed
	tail    []Race   // open chunk, filled after sealed
	cache   []*Race  // resolved(), valid until the next report
}

func (rc *recorder) reset() {
	clear(rc.tail) // drop S-DPST node references before pooling
	rc.tail = rc.tail[:0]
	rc.sealed = nil
	rc.sealedN = 0
	rc.cache = nil
}

// len is the number of raw reports logged.
func (rc *recorder) len() int { return rc.sealedN + len(rc.tail) }

// chunks returns the log's chunks in report order.
func (rc *recorder) chunks() [][]Race {
	if len(rc.tail) == 0 {
		return rc.sealed
	}
	return append(rc.sealed[:len(rc.sealed):len(rc.sealed)], rc.tail)
}

// grow seals the full tail chunk and opens one of twice its capacity,
// at most reportChunkMax.
func (rc *recorder) grow() {
	c := min(2*cap(rc.tail), reportChunkMax)
	if len(rc.tail) > 0 {
		rc.sealed = append(rc.sealed, rc.tail)
		rc.sealedN += len(rc.tail)
	}
	rc.tail = make([]Race, 0, max(c, 1))
}

func (rc *recorder) report(src, dst *dpst.Node, loc uint64, kind Kind, srcSite, dstSite trace.Site) {
	if len(rc.tail) == cap(rc.tail) {
		rc.grow()
	}
	rc.tail = append(rc.tail, Race{Src: src, Dst: dst, Loc: loc, Kind: kind, SrcSite: srcSite, DstSite: dstSite})
	rc.cache = nil
}

// logRef is a log position packed as chunk<<reportChunkBits | offset,
// plus one so that zero marks an empty dedupe slot.
func logRef(c, i int) uint32 { return uint32(c<<reportChunkBits|i) + 1 }

// dedupeHash mixes a race key — location, int32 source and sink step
// IDs, kind — into a table index (splitmix64 finalizer).
func dedupeHash(loc, ids uint64, kind Kind) uint64 {
	x := loc*0x9E3779B97F4A7C15 ^ ids ^ uint64(kind)<<62
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// resolved returns the distinct races: endpoints resolved to live S-DPST
// steps (fine-grained steps may have been collapsed into maximal steps
// during construction), deduplicated after resolution, first occurrence
// in raw order kept. One walk over the log resolves each endpoint
// (memoizing runs of the same node, which scans produce), writes the
// resolved steps back into the record, and probes an open-addressing
// table of log positions keyed by (loc, src ID, dst ID, kind); a second,
// sequential pass copies the kept records into one arena of exactly the
// right size. The result is cached until the next report and owns its
// storage, so it stays valid after the recorder is reset for reuse.
func (rc *recorder) resolved() []*Race {
	if rc.cache != nil {
		return rc.cache
	}
	n := rc.len()
	if n == 0 {
		rc.cache = []*Race{}
		return rc.cache
	}
	chunks := rc.chunks()
	// Table at load ≤ ½: the distinct count is at most the raw count.
	size := 1 << bits.Len(uint(2*n-1))
	mask := uint64(size - 1)
	table := make([]uint32, size)
	kept := make([]uint64, (n+63)/64) // bit g: raw record g is kept
	distinct := 0
	var lastSrc, resSrc, lastDst, resDst *dpst.Node
	g := 0
	for c, chunk := range chunks {
		for i := range chunk {
			r := &chunk[i]
			if r.Src != lastSrc {
				lastSrc, resSrc = r.Src, r.Src.Resolve()
			}
			if r.Dst != lastDst {
				lastDst, resDst = r.Dst, r.Dst.Resolve()
			}
			r.Src, r.Dst = resSrc, resDst
			ids := uint64(uint32(int32(resSrc.ID)))<<32 | uint64(uint32(int32(resDst.ID)))
			for h := dedupeHash(r.Loc, ids, r.Kind) & mask; ; h = (h + 1) & mask {
				ref := table[h]
				if ref == 0 {
					table[h] = logRef(c, i)
					kept[g>>6] |= 1 << (g & 63)
					distinct++
					break
				}
				q := &chunks[(ref-1)>>reportChunkBits][(ref-1)&(reportChunkMax-1)]
				if q.Loc == r.Loc && q.Kind == r.Kind &&
					(q.Src == resSrc || int32(q.Src.ID) == int32(resSrc.ID)) &&
					(q.Dst == resDst || int32(q.Dst.ID) == int32(resDst.ID)) {
					break // a duplicate of the earlier record q
				}
			}
			g++
		}
	}
	arena := make([]Race, 0, distinct)
	g = 0
	for _, chunk := range chunks {
		for i := range chunk {
			if kept[g>>6]&(1<<(g&63)) != 0 {
				r := &chunk[i]
				arena = append(arena, Race{Src: r.Src, Dst: r.Dst, Loc: r.Loc, Kind: r.Kind, SrcSite: r.SrcSite, DstSite: r.DstSite})
			}
			g++
		}
	}
	out := make([]*Race, len(arena))
	for i := range arena {
		out[i] = &arena[i]
	}
	rc.cache = out
	return out
}
