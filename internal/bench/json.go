package bench

import (
	"encoding/json"
	"io"

	"finishrepair/internal/race"
)

// WriteRepairJSON marshals repair-mode stats as indented JSON — the
// machine-readable form of Table 2, carrying the stage-level breakdown
// (phase timings, DP states, races per iteration, metrics deltas).
func WriteRepairJSON(w io.Writer, stats []*RepairStats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(stats)
}

// Table2JSON runs repair mode (MRW) on every benchmark and writes the
// results as JSON (hjbench -table 2 -json).
func Table2JSON(w io.Writer) error {
	var stats []*RepairStats
	for _, b := range All() {
		st, err := RunRepair(b, race.VariantMRW, b.RepairSize)
		if err != nil {
			return err
		}
		stats = append(stats, st)
	}
	return WriteRepairJSON(w, stats)
}
