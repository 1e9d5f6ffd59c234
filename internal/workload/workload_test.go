package workload

import (
	"errors"
	"math/rand"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/seq"
	"agentring/internal/verify"
)

func distinct(t *testing.T, n int, homes []int) {
	t.Helper()
	seen := make(map[int]bool)
	for _, h := range homes {
		if h < 0 || h >= n {
			t.Fatalf("home %d out of range [0,%d)", h, n)
		}
		if seen[h] {
			t.Fatalf("duplicate home %d", h)
		}
		seen[h] = true
	}
}

func TestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		homes, err := Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(homes) != k {
			t.Fatalf("got %d homes, want %d", len(homes), k)
		}
		distinct(t, n, homes)
	}
}

func TestRandomRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ n, k int }{{0, 1}, {5, 0}, {3, 4}, {-1, 1}} {
		if _, err := Random(c.n, c.k, rng); !errors.Is(err, ErrBadShape) {
			t.Errorf("Random(%d,%d) err = %v, want ErrBadShape", c.n, c.k, err)
		}
	}
}

func TestClustered(t *testing.T) {
	homes, err := Clustered(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, 100, homes)
	for i, h := range homes {
		if h != i {
			t.Fatalf("clustered home %d = %d, want %d", i, h, i)
		}
	}
}

func TestUniformIsUniform(t *testing.T) {
	for _, c := range []struct{ n, k int }{{16, 4}, {10, 3}, {7, 7}, {9, 1}, {23, 5}} {
		homes, err := Uniform(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		distinct(t, c.n, homes)
		if !verify.IsUniform(c.n, homes) {
			t.Errorf("Uniform(%d,%d) = %v is not uniform", c.n, c.k, homes)
		}
	}
}

func TestPeriodicWithDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ n, k, l int }{
		{12, 6, 2}, {12, 6, 1}, {12, 6, 3}, {24, 8, 4}, {60, 12, 6}, {64, 16, 8},
	}
	for _, c := range cases {
		homes, err := PeriodicWithDegree(c.n, c.k, c.l, rng)
		if err != nil {
			t.Fatalf("PeriodicWithDegree(%d,%d,%d): %v", c.n, c.k, c.l, err)
		}
		distinct(t, c.n, homes)
		gaps, err := ring.DistanceSequence(c.n, homes)
		if err != nil {
			t.Fatal(err)
		}
		if got := seq.SymmetryDegree(gaps); got != c.l {
			t.Errorf("degree(%v) = %d, want %d", gaps, got, c.l)
		}
	}
}

func TestPeriodicWithDegreeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ n, k, l int }{
		{12, 6, 4},  // l does not divide k
		{12, 6, 0},  // degree < 1
		{10, 4, 4},  // l does not divide n
		{12, 12, 2}, // fundamental full: all gaps 1, cannot be aperiodic
	}
	for _, c := range cases {
		if _, err := PeriodicWithDegree(c.n, c.k, c.l, rng); !errors.Is(err, ErrBadShape) {
			t.Errorf("PeriodicWithDegree(%d,%d,%d) err = %v, want ErrBadShape", c.n, c.k, c.l, err)
		}
	}
}

func TestPeriodicDegreeKNeedsUniform(t *testing.T) {
	// l = k means the fundamental has one agent: gaps all n/k, i.e. a
	// uniform configuration.
	rng := rand.New(rand.NewSource(9))
	homes, err := PeriodicWithDegree(20, 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !verify.IsUniform(20, homes) {
		t.Errorf("degree-k configuration %v must be uniform", homes)
	}
}

func TestFig9(t *testing.T) {
	n, homes := Fig9()
	if n != 27 || len(homes) != 9 {
		t.Fatalf("Fig9 = (%d, %d agents), want (27, 9)", n, len(homes))
	}
	distinct(t, n, homes)
	gaps, err := ring.DistanceSequence(n, homes)
	if err != nil {
		t.Fatal(err)
	}
	if seq.IsPeriodic(gaps) {
		t.Error("Fig 9 ring must be aperiodic")
	}
	// The embedded 4-times repetition (1,3)^4 must be present so that
	// some agent misestimates: agent starting after the 11-gap sees it.
	if !seq.FourfoldPrefix(gaps[1:]) {
		t.Errorf("gaps[1:] = %v must be a fourfold repetition", gaps[1:])
	}
}

func TestPumped(t *testing.T) {
	base := []int{0, 1, 5}
	n, homes, err := Pumped(8, base, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("pumped n = %d, want 40", n)
	}
	if len(homes) != 9 {
		t.Fatalf("pumped agents = %d, want 9", len(homes))
	}
	distinct(t, n, homes)
	// Second copy must be the base shifted by 8.
	for i, h := range base {
		if homes[3+i] != h+8 {
			t.Errorf("copy 1 home %d = %d, want %d", i, homes[3+i], h+8)
		}
	}
	if _, _, err := Pumped(8, base, 0, 1); !errors.Is(err, ErrBadShape) {
		t.Errorf("copies=0 err = %v, want ErrBadShape", err)
	}
}
