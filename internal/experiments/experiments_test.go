package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"agentring"
)

func TestSpecHomes(t *testing.T) {
	cases := []Spec{
		{Algorithm: agentring.Native, N: 20, K: 5, Workload: WorkloadRandom, Seed: 1},
		{Algorithm: agentring.Native, N: 20, K: 5, Workload: WorkloadClustered},
		{Algorithm: agentring.Native, N: 20, K: 5, Workload: WorkloadUniform},
		{Algorithm: agentring.Native, N: 20, K: 4, Workload: WorkloadPeriodic, Degree: 2, Seed: 1},
	}
	for _, s := range cases {
		homes, err := s.Homes()
		if err != nil {
			t.Fatalf("%s: %v", s.Workload, err)
		}
		if len(homes) != s.K {
			t.Errorf("%s: %d homes, want %d", s.Workload, len(homes), s.K)
		}
	}
	if _, err := (Spec{Workload: "nope"}).Homes(); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestNameTables(t *testing.T) {
	if alg, err := ParseAlgorithm("native-n"); err != nil || alg != agentring.NativeKnowN {
		t.Errorf("ParseAlgorithm(native-n) = %v, %v", alg, err)
	}
	for _, name := range []string{"synchronous", "sync"} {
		if s, err := ParseScheduler(name); err != nil || s != agentring.Synchronous {
			t.Errorf("ParseScheduler(%s) = %v, %v", name, s, err)
		}
	}
	if s, err := ParseScheduler(""); err != nil || s != agentring.RoundRobin {
		t.Errorf("ParseScheduler(\"\") = %v, %v, want the round-robin default", s, err)
	}
	if wl, err := ParseWorkload(""); err != nil || wl != WorkloadRandom {
		t.Errorf("ParseWorkload(\"\") = %v, %v, want the random default", wl, err)
	}
	if _, err := ParseAlgorithm("nope"); err == nil || !strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Errorf("ParseAlgorithm(nope) error = %v", err)
	}
}

func TestRunProducesRow(t *testing.T) {
	row, err := Run(Spec{
		Algorithm: agentring.Native, N: 24, K: 6,
		Workload: WorkloadRandom, Seed: 2, Scheduler: agentring.Synchronous,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !row.Uniform {
		t.Error("native run must be uniform")
	}
	if row.Rounds == 0 {
		t.Error("synchronous run must report rounds")
	}
	if row.TotalMoves == 0 || row.PeakWords == 0 {
		t.Errorf("unmeasured row: %+v", row)
	}
}

func TestTable1SweepShapes(t *testing.T) {
	ns := []int{32, 64}
	ks := []int{4, 8}
	rows, err := Table1Sweep(agentring.Native, ns, ks, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.Uniform {
			t.Errorf("n=%d k=%d not uniform", r.N, r.K)
		}
		// Table 1 col 1 claims: memory k+O(1) words, time O(n), moves O(kn).
		if r.PeakWords > r.K+8 {
			t.Errorf("n=%d k=%d words=%d > k+8", r.N, r.K, r.PeakWords)
		}
		if r.Rounds > 3*r.N {
			t.Errorf("n=%d k=%d rounds=%d > 3n", r.N, r.K, r.Rounds)
		}
		if r.TotalMoves > 3*r.K*r.N {
			t.Errorf("n=%d k=%d moves=%d > 3kn", r.N, r.K, r.TotalMoves)
		}
	}
}

func TestDegreeSweepAdaptivity(t *testing.T) {
	rows, err := DegreeSweep(48, 8, []int{1, 2, 4, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TotalMoves > rows[i-1].TotalMoves {
			t.Errorf("degree %d moves %d exceed degree %d moves %d",
				rows[i].Degree, rows[i].TotalMoves, rows[i-1].Degree, rows[i-1].TotalMoves)
		}
	}
}

func TestLowerBound(t *testing.T) {
	moves, floor, err := LowerBound(agentring.Native, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if moves < floor {
		t.Errorf("measured moves %d below the theorem floor %d", moves, floor)
	}
}

func TestFormatRows(t *testing.T) {
	rows, err := Table1Sweep(agentring.LogSpace, []int{24}, []int{4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatRows(rows)
	if !strings.Contains(out, "logspace") || !strings.Contains(out, "24") {
		t.Errorf("format output missing fields:\n%s", out)
	}
}

func TestFitLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Errorf("fit = (%v, %v), want (2, 1)", slope, intercept)
	}
	if _, _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample must error")
	}
	if _, _, err := FitLinear([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate xs must error")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-9 {
		t.Errorf("perfect correlation = %v, want 1", r)
	}
	inv := []float64{10, 8, 6, 4, 2}
	r, err = Correlation(xs, inv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-9 {
		t.Errorf("perfect anticorrelation = %v, want -1", r)
	}
	if _, err := Correlation(xs, []float64{1, 1, 1, 1, 1}); err == nil {
		t.Error("zero variance must error")
	}
}

func TestMovesScaleLinearlyInKN(t *testing.T) {
	// The O(kn) claim, checked by shape: total moves against k*n across
	// a sweep must correlate strongly (>0.95).
	rows, err := Table1Sweep(agentring.Native, []int{32, 64, 128}, []int{4, 8, 16}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, float64(r.K*r.N))
		ys = append(ys, float64(r.TotalMoves))
	}
	corr, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if corr < 0.95 {
		t.Errorf("moves vs kn correlation = %v, want > 0.95", corr)
	}
}

func TestRunAllStreamOrderedEmission(t *testing.T) {
	specs := Table1Specs(agentring.Native, []int{16, 24, 32}, []int{2, 4}, 7)
	var streamed []Row
	rows, err := RunAllStream(context.Background(), specs, 4, func(r Row) {
		streamed = append(streamed, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(rows) {
		t.Fatalf("streamed %d rows, returned %d", len(streamed), len(rows))
	}
	// Emission is strictly in input order, whatever order the worker
	// pool finished in, and carries the same measurements.
	for i := range rows {
		if streamed[i] != rows[i] {
			t.Errorf("row %d: streamed %+v != returned %+v", i, streamed[i], rows[i])
		}
	}
}

func TestWriteJSONRowIsOneCompactLine(t *testing.T) {
	rows, err := RunAll(context.Background(), Table1Specs(agentring.Native, []int{16}, []int{2}, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteJSONRow(&buf, rows[0]); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Count(s, "\n") != 1 || !strings.HasSuffix(s, "\n") {
		t.Fatalf("not a single NDJSON line: %q", s)
	}
	if strings.Contains(s, "  ") {
		t.Errorf("row is indented, want compact: %q", s)
	}
}
