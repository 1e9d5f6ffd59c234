package experiments

import (
	"strings"
	"testing"
)

func TestBarChart(t *testing.T) {
	out := BarChart("title", []string{"a", "bb"}, []float64{10, 5}, 20)
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	// The longest bar spans the full width; the half bar about half.
	longBar := strings.Count(lines[1], "#")
	halfBar := strings.Count(lines[2], "#")
	if longBar != 20 || halfBar != 10 {
		t.Errorf("bars = %d, %d; want 20, 10", longBar, halfBar)
	}
}

func TestBarChartEdgeCases(t *testing.T) {
	if BarChart("t", []string{"a"}, []float64{1, 2}, 10) != "" {
		t.Error("mismatched lengths must yield empty output")
	}
	if BarChart("t", nil, nil, 10) != "" {
		t.Error("empty input must yield empty output")
	}
	// Tiny positive values still render one mark.
	out := BarChart("", []string{"x", "y"}, []float64{1000, 1}, 10)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, "#") {
			t.Errorf("bar missing in %q", line)
		}
	}
	// Zero values render no mark but do not crash.
	out = BarChart("", []string{"z"}, []float64{0}, 10)
	if strings.Contains(out, "#") {
		t.Errorf("zero bar rendered: %q", out)
	}
	// Narrow widths are clamped.
	if out := BarChart("", []string{"w"}, []float64{5}, 1); !strings.Contains(out, "#") {
		t.Errorf("clamped width chart broken: %q", out)
	}
}
