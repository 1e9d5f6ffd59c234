package main

import (
	"fmt"
	"strings"

	"agentring/internal/experiments"
)

// workload labels a row's placement: the generator's name, with the
// symmetry degree for periodic placements.
func (r row) workload() string {
	if r.spec.Workload == "periodic" {
		return fmt.Sprintf("periodic/%d", r.spec.Degree)
	}
	return r.spec.Workload
}

// formatRows renders rows as an aligned text table.
func formatRows(rows []row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %5s %10s %4s %3s %9s %9s %7s %7s %6s %8s\n",
		"algorithm", "n", "k", "workload", "l", "ok", "moves", "max/agent", "rounds", "words", "bits", "messages")
	for _, r := range rows {
		ok := "yes"
		if !r.Uniform {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-12s %6d %5d %10s %4d %3s %9d %9d %7d %7d %6d %8d\n",
			r.Algorithm, r.N, r.K, r.workload(), r.SymmetryDegree, ok,
			r.Moves, r.MaxMoves, r.Rounds, r.PeakWords, r.PeakBits, r.Messages)
	}
	return b.String()
}

// movesChart charts total moves across rows, labeling each row by its
// symmetry degree (periodic placements) or its (n, k).
func movesChart(title string, rows []row) string {
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, r := range rows {
		if r.spec.Workload == "periodic" {
			labels[i] = fmt.Sprintf("l=%d", r.spec.Degree)
		} else {
			labels[i] = fmt.Sprintf("n=%d k=%d", r.N, r.K)
		}
		values[i] = float64(r.Moves)
	}
	return experiments.BarChart(title, labels, values, 48)
}
