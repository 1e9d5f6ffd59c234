package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"agentring"
	"agentring/internal/experiments"
)

func TestSweepNative(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-alg", "native"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "column 1") || !strings.Contains(s, "native(k)") {
		t.Errorf("missing native sweep:\n%s", s)
	}
	if strings.Contains(s, "column 2") {
		t.Error("logspace sweep printed despite -alg native")
	}
}

func TestSweepRelaxedDegrees(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-alg", "relaxed"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "column 4") || !strings.Contains(s, "periodic/16") {
		t.Errorf("missing degree sweep rows:\n%s", s)
	}
}

func TestDivisorsUpTo(t *testing.T) {
	got := divisorsUpTo(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("divisors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors = %v, want %v", got, want)
		}
	}
}

func TestSweepJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-alg", "relaxed", "-json", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	// -json streams NDJSON: one self-contained object per line, not one
	// buffered array.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no NDJSON rows")
	}
	var rows []map[string]any
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", i, err, line)
		}
		rows = append(rows, row)
	}
	if alg, ok := rows[0]["algorithm"].(string); !ok || alg != "relaxed" {
		t.Errorf("first row algorithm = %v", rows[0]["algorithm"])
	}
	// The degree sweep runs at fixed n=256, k=16: one row per divisor.
	if len(rows) != len(divisorsUpTo(16)) {
		t.Errorf("want %d rows, got %d", len(divisorsUpTo(16)), len(rows))
	}
}

func TestSweepBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-alg"}, &out); err == nil {
		t.Error("dangling flag must error")
	}
}

// TestSweepRejectsUnknownAlgorithm: an -alg value that names no sweep
// is an error naming the accepted values, not an empty run. naive is a
// facade algorithm the sweep has no grid for.
func TestSweepRejectsUnknownAlgorithm(t *testing.T) {
	for _, alg := range []string{"bogus", "naive"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-alg", alg}, &out)
		if err == nil || !strings.Contains(err.Error(), "native, logspace, relaxed, binative or all") {
			t.Errorf("-alg %s: error %v, want one naming the accepted values", alg, err)
		}
		if out.Len() != 0 {
			t.Errorf("-alg %s printed %q", alg, out.String())
		}
	}
}

func TestSweepExitCodes(t *testing.T) {
	// All shipped sweeps are expected uniform, so a healthy run exits
	// cleanly...
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-alg", "native"}, &out); err != nil {
		t.Fatalf("uniform sweep must pass: %v", err)
	}
	// ...and the failure detector that feeds the non-zero exit flags
	// exactly the non-uniform rows.
	rows := []experiments.Row{
		{Spec: experiments.Spec{Algorithm: agentring.Native, N: 8, K: 2, Workload: experiments.WorkloadRandom}, Uniform: true},
		{Spec: experiments.Spec{Algorithm: agentring.LogSpace, N: 6, K: 3, Workload: experiments.WorkloadClustered}, Uniform: false},
	}
	failed := nonUniform(rows)
	if len(failed) != 1 || !strings.Contains(failed[0], "logspace n=6 k=3") {
		t.Fatalf("nonUniform = %v", failed)
	}
}

func TestSweepBiRingBiNative(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-topology", "biring", "-alg", "binative"}, &out); err != nil {
		t.Fatalf("biring binative sweep failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Bidirectional variant") {
		t.Errorf("missing binative section:\n%s", out.String())
	}
	if err := run(context.Background(), []string{"-alg", "binative"}, &bytes.Buffer{}); err == nil {
		t.Error("binative without -topology biring should fail")
	}
}

func TestSweepFixedSubstrates(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-topology", "torus=8x8", "-alg", "native"}, &out); err != nil {
		t.Fatalf("torus sweep failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-topology", "tree=0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8", "-alg", "logspace"}, &out); err != nil {
		t.Fatalf("tree sweep failed: %v\n%s", err, out.String())
	}
}
