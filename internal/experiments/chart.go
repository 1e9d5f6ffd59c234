package experiments

import (
	"fmt"
	"strings"
)

// BarChart renders labeled values as a horizontal ASCII bar chart,
// scaled so the longest bar spans width characters. It is used by
// cmd/sweep to show the complexity shapes (the closest a terminal gets
// to the paper's figures).
func BarChart(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) || len(labels) == 0 {
		return ""
	}
	if width < 8 {
		width = 8
	}
	maxVal := values[0]
	labelW := len(labels[0])
	for i := range values {
		if values[i] > maxVal {
			maxVal = values[i]
		}
		if len(labels[i]) > labelW {
			labelW = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for i := range values {
		bar := 0
		if maxVal > 0 {
			bar = int(values[i] / maxVal * float64(width))
		}
		if values[i] > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  %-*s %s %.0f\n", labelW, labels[i], strings.Repeat("#", bar), values[i])
	}
	return b.String()
}
