package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestExploreClean(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-n", "6", "-k", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "full schedule space covered") {
		t.Errorf("missing coverage line:\n%s", s)
	}
	if !strings.Contains(s, "no counterexample") {
		t.Errorf("missing verdict:\n%s", s)
	}
}

func TestExploreNaiveCounterexampleExitsNonZero(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-n", "8", "-homes", "0,1,2,3,4", "-alg", "naive"}, &out)
	if err == nil {
		t.Fatal("counterexample run must return an error for the non-zero exit")
	}
	if !strings.Contains(err.Error(), "counterexample") {
		t.Fatalf("error = %v", err)
	}
	if !strings.Contains(out.String(), "not uniform") {
		t.Errorf("missing counterexample trace:\n%s", out.String())
	}
}

func TestExploreJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-n", "5", "-k", "2", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	// -json streams NDJSON: progress rows (marked type=progress) plus
	// exactly one report row, distinguished by the absence of "type".
	reports, progress := splitNDJSON(t, out.String())
	if len(reports) != 1 {
		t.Fatalf("want exactly 1 report row, got %d:\n%s", len(reports), out.String())
	}
	rep := reports[0]
	if rep["complete"] != true {
		t.Errorf("complete = %v", rep["complete"])
	}
	if _, ok := rep["states"].(float64); !ok {
		t.Errorf("states missing: %v", rep)
	}
	if len(progress) == 0 {
		t.Error("no progress rows in -json output")
	}
	for i, p := range progress {
		if _, ok := p["states"].(float64); !ok {
			t.Errorf("progress row %d has no states field: %v", i, p)
		}
	}
}

// splitNDJSON parses every line of s as a JSON object and partitions
// the rows into reports (no "type" field) and progress rows.
func splitNDJSON(t *testing.T, s string) (reports, progress []map[string]any) {
	t.Helper()
	for i, line := range strings.Split(strings.TrimSpace(s), "\n") {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", i, err, line)
		}
		if row["type"] == "progress" {
			progress = append(progress, row)
		} else {
			reports = append(reports, row)
		}
	}
	return reports, progress
}

// TestExploreAllJSONStreamsNDJSON: -all -json streams one report row
// per placement, and every progress row names its placement, so the
// interleaved rows of placements explored at once (-workers 2) can be
// told apart. Each search emits a final snapshot, so every placement
// has at least one progress row.
func TestExploreAllJSONStreamsNDJSON(t *testing.T) {
	for _, workers := range []string{"1", "2"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-n", "4", "-all", "-json", "-alg", "logspace", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		reports, progress := splitNDJSON(t, out.String())
		if len(reports) < 2 {
			t.Fatalf("workers=%s: want one NDJSON report line per placement, got %d:\n%s", workers, len(reports), out.String())
		}
		placements := map[string]int{}
		for i, raw := range reports {
			homes, _ := raw["homes"].([]any)
			if raw["algorithm"] != "logspace" || raw["n"] != float64(4) || len(homes) == 0 {
				t.Errorf("workers=%s: report %d: %+v", workers, i, raw)
			}
			if _, ok := raw["report"].(map[string]any); !ok {
				t.Errorf("workers=%s: report %d has no nested report object: %+v", workers, i, raw)
			}
			placements[fmt.Sprint(homes)] = 0
		}
		for i, raw := range progress {
			homes := fmt.Sprint(raw["homes"])
			if _, ok := placements[homes]; !ok {
				t.Errorf("workers=%s: progress row %d names homes %s, no report row's: %+v", workers, i, homes, raw)
				continue
			}
			placements[homes]++
		}
		for homes, rows := range placements {
			if rows == 0 {
				t.Errorf("workers=%s: placement %s has no progress row", workers, homes)
			}
		}
	}
}

// TestExploreAllJSONEndsOnCounterexample: a failing -all sweep's
// NDJSON ends on the failing placement's report row. The placements
// explored alongside it are cancelled and may still report progress,
// which must not follow that row. Whether one does depends on timing,
// so the sweep runs 20 times.
func TestExploreAllJSONEndsOnCounterexample(t *testing.T) {
	for i := 0; i < 20; i++ {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-n", "8", "-all", "-json", "-alg", "naive", "-workers", "4"}, &out)
		if err == nil || !strings.Contains(err.Error(), "counterexample") {
			t.Fatalf("run %d: error = %v, want the counterexample", i, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Type   string `json:"type"`
			Report struct {
				Counterexample any `json:"counterexample"`
			} `json:"report"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("run %d: last line is not a JSON object: %v", i, err)
		}
		if last.Type != "" || last.Report.Counterexample == nil {
			t.Fatalf("run %d: the stream ends on %s, want the counterexample's report row", i, lines[len(lines)-1])
		}
	}
}

func TestExploreAllPlacements(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-n", "4", "-all", "-alg", "logspace"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "verdict") || !strings.Contains(s, "ok") {
		t.Errorf("missing table rows:\n%s", s)
	}
	if strings.Contains(s, "CEX") {
		t.Errorf("unexpected counterexample:\n%s", s)
	}
}

func TestExploreBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-alg", "nope"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(context.Background(), []string{"-n", "3", "-k", "9"}, &out); err == nil {
		t.Error("k > n accepted")
	}
	if err := run(context.Background(), []string{"-homes", "0,x"}, &out); err == nil {
		t.Error("malformed homes accepted")
	}
}

func TestExploreBiRingBiNative(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-topology", "biring", "-alg", "binative", "-n", "5", "-k", "2"}, &out); err != nil {
		t.Fatalf("biring binative exploration failed: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "biring(5)") || !strings.Contains(s, "no counterexample") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

func TestExploreTorusSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-topology", "torus=2x3", "-alg", "native", "-k", "2"}, &out); err != nil {
		t.Fatalf("torus exploration failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "torus(2x3)") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}
