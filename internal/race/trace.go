package race

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"finishrepair/internal/dpst"
	"finishrepair/internal/trace"
)

// The paper's tool writes the detected races to trace files which the
// repair passes then read back ("the time to repair is dominated by the
// time taken to read the trace files", §7.2). We mirror that boundary:
// WriteTrace serializes races, ReadTrace deserializes them against the
// S-DPST of the same execution. Version 2 of the record carries the
// access sites (block, statement, isolation bit per endpoint) that the
// isolated repair strategy needs; version 3 adds the per-endpoint
// isolated lock class in the formerly-reserved tail bytes.

const traceMagic = uint32(0x53445054) // "SDPT"

// raceTraceVersion is the current race-trace record version.
const raceTraceVersion = uint32(3)

// header layout (12 bytes): magic(4) version(4) record count(4).
const hdrLen = 12

// record layout (38 bytes): srcID(4) dstID(4) loc(8) kind(1) flags(1)
// srcBlock(4) srcStmt(4) dstBlock(4) dstStmt(4) srcClass(2) dstClass(2);
// flags bit 0 is SrcSite.Iso, bit 1 is DstSite.Iso.
const recLen = 38

// readStepRecords is how many records ReadTrace reads per step. The
// header's record count is untrusted: the body is read one bounded step
// at a time, and the next step is allocated only after the previous one
// was read in full, so a header promising more records than the input
// holds costs at most one step of memory before the read fails.
const readStepRecords = 1 << 15

// WriteTrace serializes races to w in the binary trace format: the
// whole trace is encoded into one buffer of exactly 12+38·len(races)
// bytes and written with a single Write. When w is a *bytes.Buffer (the
// repair loop's in-memory trace file), that buffer is w's own spare
// capacity, so the trace is encoded in place instead of encoded and
// then copied.
func WriteTrace(w io.Writer, races []*Race) error {
	size := hdrLen + recLen*len(races)
	var buf []byte
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Grow(size)
		buf = bb.AvailableBuffer()[:size]
	} else {
		buf = make([]byte, size)
	}
	binary.LittleEndian.PutUint32(buf[0:4], traceMagic)
	binary.LittleEndian.PutUint32(buf[4:8], raceTraceVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(races)))
	for i, r := range races {
		off := hdrLen + i*recLen
		rec := buf[off : off+recLen : off+recLen]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(r.Src.ID))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(r.Dst.ID))
		binary.LittleEndian.PutUint64(rec[8:16], r.Loc)
		rec[16] = byte(r.Kind)
		var flags byte
		if r.SrcSite.Iso {
			flags |= 1
		}
		if r.DstSite.Iso {
			flags |= 2
		}
		rec[17] = flags
		binary.LittleEndian.PutUint32(rec[18:22], uint32(r.SrcSite.Block))
		binary.LittleEndian.PutUint32(rec[22:26], uint32(r.SrcSite.Stmt))
		binary.LittleEndian.PutUint32(rec[26:30], uint32(r.DstSite.Block))
		binary.LittleEndian.PutUint32(rec[30:34], uint32(r.DstSite.Stmt))
		binary.LittleEndian.PutUint16(rec[34:36], uint16(r.SrcSite.IsoClass))
		binary.LittleEndian.PutUint16(rec[36:38], uint16(r.DstSite.IsoClass))
	}
	_, err := w.Write(buf)
	return err
}

// ReadTrace deserializes a trace written by WriteTrace, resolving step
// IDs against tree. The races share one arena.
func ReadTrace(r io.Reader, tree *dpst.Tree) ([]*Race, error) {
	var hdr [hdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("race trace: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != traceMagic {
		return nil, fmt.Errorf("race trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != raceTraceVersion {
		return nil, fmt.Errorf("race trace: unsupported version %d", v)
	}
	n := int(binary.LittleEndian.Uint32(hdr[8:12]))
	steps, err := readRecords(r, n)
	if err != nil {
		return nil, err
	}

	byID := make([]*dpst.Node, tree.IDBound())
	tree.Walk(func(nd *dpst.Node) { byID[nd.ID] = nd })
	node := func(id uint32) *dpst.Node {
		if int64(id) < int64(len(byID)) {
			return byID[id]
		}
		return nil
	}

	arena := make([]Race, n)
	races := make([]*Race, n)
	i := 0
	for _, step := range steps {
		for off := 0; off < len(step); off += recLen {
			rec := step[off : off+recLen : off+recLen]
			src := node(binary.LittleEndian.Uint32(rec[0:4]))
			dst := node(binary.LittleEndian.Uint32(rec[4:8]))
			if src == nil || dst == nil {
				return nil, fmt.Errorf("race trace: record %d references unknown step", i)
			}
			flags := rec[17]
			arena[i] = Race{
				Src:  src,
				Dst:  dst,
				Loc:  binary.LittleEndian.Uint64(rec[8:16]),
				Kind: Kind(rec[16]),
				SrcSite: trace.Site{
					Block:    int32(binary.LittleEndian.Uint32(rec[18:22])),
					Stmt:     int32(binary.LittleEndian.Uint32(rec[22:26])),
					Iso:      flags&1 != 0,
					IsoClass: int32(binary.LittleEndian.Uint16(rec[34:36])),
				},
				DstSite: trace.Site{
					Block:    int32(binary.LittleEndian.Uint32(rec[26:30])),
					Stmt:     int32(binary.LittleEndian.Uint32(rec[30:34])),
					Iso:      flags&2 != 0,
					IsoClass: int32(binary.LittleEndian.Uint16(rec[36:38])),
				},
			}
			races[i] = &arena[i]
			i++
		}
	}
	return races, nil
}

// readRecords reads the bodies of n records in steps of at most
// readStepRecords records. A short body fails with the index of the
// first record that could not be read in full.
func readRecords(r io.Reader, n int) ([][]byte, error) {
	var steps [][]byte
	for read := 0; read < n; {
		k := min(n-read, readStepRecords)
		step := make([]byte, k*recLen)
		if got, err := io.ReadFull(r, step); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) && got%recLen == 0 {
				err = io.EOF // no byte of the failing record was read
			}
			return nil, fmt.Errorf("race trace: truncated at record %d: %w", read+got/recLen, err)
		}
		steps = append(steps, step)
		read += k
	}
	return steps, nil
}
