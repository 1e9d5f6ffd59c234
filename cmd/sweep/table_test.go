package main

import (
	"strings"
	"testing"

	"agentring/internal/jobs"
)

// rowsOf executes specs and pairs each finished cell with its spec.
func rowsOf(t *testing.T, specs []jobs.Spec) []row {
	t.Helper()
	var rows []row
	for _, spec := range specs {
		res, err := jobs.Execute(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cells {
			rows = append(rows, row{spec, c})
		}
	}
	return rows
}

var testBase = jobs.Spec{Workload: "random", Seed: 3, Scheduler: "synchronous"}

func TestFormatRows(t *testing.T) {
	rows := rowsOf(t, preset{alg: "logspace"}.specs(testBase, []int{24}, []int{4}, 0, 0))
	out := formatRows(rows)
	if !strings.Contains(out, "logspace") || !strings.Contains(out, "24") {
		t.Errorf("format output missing fields:\n%s", out)
	}
}

func TestMovesChart(t *testing.T) {
	rows := rowsOf(t, preset{alg: "relaxed", degree: true}.specs(testBase, nil, nil, 24, 4))
	out := movesChart("adaptivity", rows)
	if !strings.Contains(out, "l=1") || !strings.Contains(out, "l=4") {
		t.Errorf("labels missing:\n%s", out)
	}
	grid := rowsOf(t, preset{alg: "native"}.specs(testBase, []int{24}, []int{4}, 0, 0))
	out = movesChart("grid", grid)
	if !strings.Contains(out, "n=24 k=4") {
		t.Errorf("grid labels missing:\n%s", out)
	}
}
