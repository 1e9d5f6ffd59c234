package experiments

import (
	"math"
	"strings"
	"testing"

	"agentring"
)

func TestSpecHomes(t *testing.T) {
	cases := []Spec{
		{N: 20, K: 5, Workload: WorkloadRandom, Seed: 1},
		{N: 20, K: 5, Workload: WorkloadClustered},
		{N: 20, K: 5, Workload: WorkloadUniform},
		{N: 20, K: 4, Workload: WorkloadPeriodic, Degree: 2, Seed: 1},
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
	// Proportional samples far from unit scale, whose dx²·dy² lies
	// outside [1e-38, 1e38]: still r = 1.
	for _, scale := range []float64{1e10, 1e-10} {
		sx, sy := make([]float64, len(xs)), make([]float64, len(ys))
		for i := range xs {
			sx[i], sy[i] = xs[i]*scale, ys[i]*scale
		}
		r, err := Correlation(sx, sy)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-1) > 1e-12 {
			t.Errorf("scale %g: perfect correlation = %v, want 1", scale, r)
		}
	}
}
