package experiments_test

import (
	"testing"

	"agentring/internal/experiments"
	"agentring/internal/jobs"
)

// runCell executes one run spec through the job executor and returns
// its cell.
func runCell(t *testing.T, spec jobs.Spec) jobs.CellResult {
	t.Helper()
	spec.Kind = jobs.KindRun
	res, err := jobs.Execute(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells[0]
}

// table1 executes one Table 1 column: alg over the (n, k) grid with
// random placements and the synchronous scheduler, so rounds are the
// paper's ideal time.
func table1(t *testing.T, alg string, ns, ks []int, seed int64) []jobs.CellResult {
	t.Helper()
	res, err := jobs.Execute(jobs.Spec{
		Kind: jobs.KindSweep, Algorithm: alg, Ns: ns, Ks: ks,
		Workload: "random", Seed: seed, Scheduler: "synchronous",
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells
}

func TestRunProducesRow(t *testing.T) {
	row := runCell(t, jobs.Spec{
		Algorithm: "native", N: 24, K: 6,
		Workload: "random", Seed: 2, Scheduler: "synchronous",
	})
	if !row.Uniform {
		t.Error("native run must be uniform")
	}
	if row.Rounds == 0 {
		t.Error("synchronous run must report rounds")
	}
	if row.Moves == 0 || row.PeakWords == 0 {
		t.Errorf("unmeasured row: %+v", row)
	}
}

func TestTable1SweepShapes(t *testing.T) {
	ns := []int{32, 64}
	ks := []int{4, 8}
	rows := table1(t, "native", ns, ks, 7)
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
		if r.Moves > 3*r.K*r.N {
			t.Errorf("n=%d k=%d moves=%d > 3kn", r.N, r.K, r.Moves)
		}
	}
}

func TestDegreeSweepAdaptivity(t *testing.T) {
	degrees := []int{1, 2, 4, 8}
	var rows []jobs.CellResult
	for _, l := range degrees {
		rows = append(rows, runCell(t, jobs.Spec{
			Algorithm: "relaxed", N: 48, K: 8,
			Workload: "periodic", Degree: l, Seed: 5, Scheduler: "synchronous",
		}))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Moves > rows[i-1].Moves {
			t.Errorf("degree %d moves %d exceed degree %d moves %d",
				degrees[i], rows[i].Moves, degrees[i-1], rows[i-1].Moves)
		}
	}
}

// TestLowerBound runs the Theorem 1 / Fig 3 clustered configuration and
// holds its measured total moves to the theorem's kn/16 floor.
func TestLowerBound(t *testing.T) {
	const n, k = 64, 16
	row := runCell(t, jobs.Spec{
		Algorithm: "native", N: n, K: k, Workload: "clustered", Scheduler: "synchronous",
	})
	if !row.Uniform {
		t.Fatal("lower-bound run not uniform")
	}
	if floor := k * n / 16; row.Moves < floor {
		t.Errorf("measured moves %d below the theorem floor %d", row.Moves, floor)
	}
}

func TestMovesScaleLinearlyInKN(t *testing.T) {
	// The O(kn) claim, checked by shape: total moves against k*n across
	// a sweep must correlate strongly (>0.95).
	var xs, ys []float64
	for _, r := range table1(t, "native", []int{32, 64, 128}, []int{4, 8, 16}, 11) {
		xs = append(xs, float64(r.K*r.N))
		ys = append(ys, float64(r.Moves))
	}
	corr, err := experiments.Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if corr < 0.95 {
		t.Errorf("moves vs kn correlation = %v, want > 0.95", corr)
	}
}
