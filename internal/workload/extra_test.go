package workload

import (
	"errors"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/seq"
)

func TestTwoClusters(t *testing.T) {
	homes, err := TwoClusters(40, 8)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, 40, homes)
	if homes[0] != 0 || homes[4] != 20 {
		t.Errorf("homes = %v", homes)
	}
	if _, err := TwoClusters(8, 8); !errors.Is(err, ErrBadShape) {
		t.Errorf("oversized clusters err = %v", err)
	}
}

func TestTwoClustersOddSplit(t *testing.T) {
	homes, err := TwoClusters(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, 30, homes)
	// 2 agents in the first cluster, 3 in the second.
	if homes[1] != 1 || homes[2] != 15 || homes[4] != 17 {
		t.Errorf("homes = %v", homes)
	}
}

func TestGeometric(t *testing.T) {
	homes, err := Geometric(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, 64, homes)
	want := []int{0, 1, 3, 7, 15}
	for i := range want {
		if homes[i] != want[i] {
			t.Fatalf("homes = %v, want %v", homes, want)
		}
	}
	gaps, err := ring.DistanceSequence(64, homes)
	if err != nil {
		t.Fatal(err)
	}
	if seq.SymmetryDegree(gaps) != 1 {
		t.Errorf("geometric configuration should be maximally asymmetric, gaps %v", gaps)
	}
}

func TestGeometricOverflow(t *testing.T) {
	if _, err := Geometric(10, 9); !errors.Is(err, ErrBadShape) {
		t.Errorf("overflow err = %v", err)
	}
}
