package experiments

import (
	"encoding/json"
	"io"
)

// jsonRow is the stable serialization shape of a Row: enums rendered as
// strings so downstream tooling (benchmark trackers, plotting scripts)
// does not depend on Go constant values.
type jsonRow struct {
	Algorithm      string `json:"algorithm"`
	N              int    `json:"n"`
	K              int    `json:"k"`
	Workload       string `json:"workload"`
	Degree         int    `json:"degree,omitempty"`
	Faults         string `json:"faults,omitempty"`
	Seed           int64  `json:"seed"`
	SymmetryDegree int    `json:"symmetry_degree"`
	Uniform        bool   `json:"uniform"`
	TotalMoves     int    `json:"total_moves"`
	MaxMoves       int    `json:"max_moves"`
	Rounds         int    `json:"rounds"`
	PeakWords      int    `json:"peak_words"`
	PeakBits       int    `json:"peak_bits"`
	Messages       int    `json:"messages"`
}

func toJSONRow(r Row) jsonRow {
	return jsonRow{
		Algorithm:      r.Algorithm.String(),
		N:              r.N,
		K:              r.K,
		Workload:       string(r.Workload),
		Degree:         r.Degree,
		Faults:         r.Faults,
		Seed:           r.Seed,
		SymmetryDegree: r.SymmetryDegree,
		Uniform:        r.Uniform,
		TotalMoves:     r.TotalMoves,
		MaxMoves:       r.MaxMoves,
		Rounds:         r.Rounds,
		PeakWords:      r.PeakWords,
		PeakBits:       r.PeakBits,
		Messages:       r.Messages,
	}
}

// WriteJSONRow renders one row as a single compact line, the NDJSON
// unit the sweep CLI streams per completed cell (RunAllStream feeds it
// in grid order while the batch is still running).
func WriteJSONRow(w io.Writer, r Row) error {
	return json.NewEncoder(w).Encode(toJSONRow(r))
}
