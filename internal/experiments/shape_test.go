package experiments_test

import (
	"math"
	"testing"

	"agentring/internal/jobs"
)

// TestAlg1TimeIsLinearInN checks the O(n) ideal-time shape of
// Algorithm 1: rounds/n must stay within a narrow constant band across
// a wide n range at fixed k.
func TestAlg1TimeIsLinearInN(t *testing.T) {
	var ratios []float64
	for _, n := range []int{64, 128, 256, 512} {
		row := runCell(t, jobs.Spec{
			Algorithm: "native", N: n, K: 8,
			Workload: "clustered", Scheduler: "synchronous",
		})
		ratios = append(ratios, float64(row.Rounds)/float64(n))
	}
	for _, r := range ratios {
		if r < 0.9 || r > 3.2 {
			t.Errorf("rounds/n = %v outside the [0.9, 3.2] constant band (ratios %v)", r, ratios)
		}
	}
	// The band must not drift upward with n: the largest ratio may exceed
	// the smallest by at most 50%.
	min, max := ratios[0], ratios[0]
	for _, r := range ratios {
		min = math.Min(min, r)
		max = math.Max(max, r)
	}
	if max > 1.5*min {
		t.Errorf("rounds/n drifts with n: %v", ratios)
	}
}

// TestAlg2TimeGrowsWithLogK checks the O(n log k) shape of Algorithms
// 2+3: at fixed n, rounds/n should increase as k grows (more selection
// sub-phases), and the rounds/(n log k) ratio should stay bounded.
func TestAlg2TimeGrowsWithLogK(t *testing.T) {
	const n = 256
	type point struct {
		k      int
		rounds int
	}
	var pts []point
	for _, k := range []int{4, 16, 64} {
		row := runCell(t, jobs.Spec{
			Algorithm: "logspace", N: n, K: k,
			Workload: "clustered", Scheduler: "synchronous",
		})
		pts = append(pts, point{k, row.Rounds})
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].rounds < pts[i-1].rounds {
			t.Errorf("rounds decreased with k: %+v", pts)
		}
	}
	for _, p := range pts {
		logk := math.Log2(float64(p.k))
		ratio := float64(p.rounds) / (float64(n) * logk)
		if ratio > 3 {
			t.Errorf("k=%d: rounds/(n log k) = %v exceeds 3", p.k, ratio)
		}
	}
}

// TestRelaxedMessagesBounded checks that the relaxed algorithm's
// correction traffic stays modest: each patroller broadcasts only when
// co-located with a suspended agent, so total messages are O(k^2) at
// worst, and far less on symmetric configurations.
func TestRelaxedMessagesBounded(t *testing.T) {
	for _, c := range []struct{ n, k, l int }{{128, 8, 1}, {128, 8, 8}} {
		row := runCell(t, jobs.Spec{
			Algorithm: "relaxed", N: c.n, K: c.k,
			Workload: "periodic", Degree: c.l, Seed: 3,
			Scheduler: "synchronous",
		})
		if row.Messages > 4*c.k*c.k {
			t.Errorf("n=%d k=%d l=%d: %d messages exceed 4k^2", c.n, c.k, c.l, row.Messages)
		}
	}
}

// TestMemoryShapeContrast pins the Table 1 memory contrast at one
// glance: Algorithm 1 memory grows linearly in k while Algorithms 2+3
// stay flat.
func TestMemoryShapeContrast(t *testing.T) {
	var alg1Words, alg2Words []int
	for _, k := range []int{8, 32} {
		n := 8 * k
		r1 := runCell(t, jobs.Spec{Algorithm: "native", N: n, K: k,
			Workload: "random", Seed: 5, Scheduler: "roundrobin"})
		r2 := runCell(t, jobs.Spec{Algorithm: "logspace", N: n, K: k,
			Workload: "random", Seed: 5, Scheduler: "roundrobin"})
		alg1Words = append(alg1Words, r1.PeakWords)
		alg2Words = append(alg2Words, r2.PeakWords)
	}
	if alg1Words[1] <= alg1Words[0] {
		t.Errorf("alg1 memory did not grow with k: %v", alg1Words)
	}
	if alg2Words[1] != alg2Words[0] {
		t.Errorf("alg2 memory is not constant: %v", alg2Words)
	}
	if got, want := alg1Words[1]-alg1Words[0], 32-8; got != want {
		t.Errorf("alg1 memory grew by %d words for Δk=%d, want exactly %d (one word per distance)", got, 24, want)
	}
}
