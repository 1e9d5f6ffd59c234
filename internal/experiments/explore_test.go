package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"agentring"
)

func TestAllPlacementsRotationDedup(t *testing.T) {
	// Binary necklaces of length 4, excluding the empty one: 0001,
	// 0011, 0101, 0111, 1111.
	got := AllPlacements(4)
	if len(got) != 5 {
		t.Fatalf("AllPlacements(4) = %v, want 5 placements", got)
	}
	for _, homes := range got {
		if len(homes) == 0 {
			t.Fatal("empty placement")
		}
	}
	// n=1 has exactly the single-agent placement.
	if got := AllPlacements(1); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("AllPlacements(1) = %v", got)
	}
}

func TestExploreAllNativeSmallRing(t *testing.T) {
	rows, err := ExploreAllStream(context.Background(), agentring.Native, "ring", 5, nil, agentring.ExploreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AllPlacements(5)) {
		t.Fatalf("%d rows for %d placements", len(rows), len(AllPlacements(5)))
	}
	for _, r := range rows {
		if !r.Report.Complete {
			t.Errorf("homes=%v: incomplete exploration", r.Homes)
		}
		if r.Report.Counterexample != nil {
			t.Errorf("homes=%v: counterexample: %s", r.Homes, r.Report.Counterexample.Reason)
		}
	}
	table := FormatExploreRows(rows)
	if !strings.Contains(table, "native(k)") || !strings.Contains(table, "full") {
		t.Errorf("table misses expected columns:\n%s", table)
	}
}

func TestExploreAllSurfacesCounterexample(t *testing.T) {
	// The pumped 8-ring contains the clustered placement {0..4} whose
	// naive-halting run is the Theorem 5 violation, so the sweep must
	// abort with a counterexample error.
	_, err := ExploreAllStream(context.Background(), agentring.NaiveHalting, "ring", 8, nil, agentring.ExploreOptions{}, nil)
	if err == nil || !strings.Contains(err.Error(), "counterexample") {
		t.Fatalf("err = %v, want a counterexample abort", err)
	}
}

// TestAllPlacementsDihedralSubset checks the dihedral enumeration
// against a brute-force orbit computation: it must pick exactly one
// representative per orbit of the full dihedral group acting on
// non-empty placements, and be a subset of the rotation-only
// representatives.
func TestAllPlacementsDihedralSubset(t *testing.T) {
	for n := 1; n <= 8; n++ {
		rot := AllPlacements(n)
		dih := AllPlacementsDihedral(n)
		if len(dih) > len(rot) {
			t.Fatalf("n=%d: %d dihedral representatives exceed %d rotational ones", n, len(dih), len(rot))
		}
		inRot := make(map[string]bool, len(rot))
		for _, h := range rot {
			inRot[fmt.Sprint(h)] = true
		}
		for _, h := range dih {
			if !inRot[fmt.Sprint(h)] {
				t.Errorf("n=%d: dihedral representative %v is not rotation-canonical", n, h)
			}
		}
		// Brute force: count dihedral orbits over all non-empty masks.
		seen := make(map[int]bool)
		orbits := 0
		for mask := 1; mask < 1<<n; mask++ {
			if seen[mask] {
				continue
			}
			orbits++
			for r := 0; r < n; r++ {
				rot := (mask>>r | mask<<(n-r)) & (1<<n - 1)
				seen[rot] = true
				refl := 0
				for v := 0; v < n; v++ {
					if rot&(1<<v) != 0 {
						refl |= 1 << ((n - v) % n)
					}
				}
				seen[refl] = true
			}
		}
		if len(dih) != orbits {
			t.Errorf("n=%d: %d dihedral representatives, brute force counts %d orbits", n, len(dih), orbits)
		}
	}
}

// TestBiNativeChirality pins the chirality asymmetry documented on
// AllPlacementsDihedral: BiNative elects its selection circuit through
// port 0 (the forward direction), so reflection is NOT a symmetry of
// its schedule space — mirrored biring placements explore genuinely
// different state sets. Both must still verify (the correctness claim
// is reflection-symmetric; the search is not), but if the state counts
// ever become equal, either the chirality was fixed (and
// AllPlacementsDihedral's warning should be revisited) or the
// canonicalization broke.
func TestBiNativeChirality(t *testing.T) {
	topo, err := agentring.ParseTopology("biring", 6)
	if err != nil {
		t.Fatal(err)
	}
	explore := func(homes []int) agentring.ExploreReport {
		t.Helper()
		rep, err := agentring.Explore(context.Background(), agentring.BiNative,
			agentring.Config{Topology: topo, Homes: homes}, agentring.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete || rep.Counterexample != nil {
			t.Fatalf("homes=%v: complete=%v cex=%v", homes, rep.Complete, rep.Counterexample)
		}
		return rep
	}
	// {0,3,5} is the reflection v -> -v mod 6 of {0,1,3}.
	fwd := explore([]int{0, 1, 3})
	mir := explore([]int{0, 3, 5})
	if fwd.States == mir.States {
		t.Errorf("mirrored placements explore identical state counts (%d); BiNative chirality assumption broken", fwd.States)
	}
}

// TestExploreAllBiNativeBiring6 is the bidirectional coverage
// acceptance check: BiNative verifies on every placement of the
// 6-node bidirectional ring (up to rotation), with a parallel worker
// pool, and the sweep agrees with a sequential one placement by
// placement on the covered state sets.
func TestExploreAllBiNativeBiring6(t *testing.T) {
	par, err := ExploreAllStream(context.Background(), agentring.BiNative, "biring", 6, nil, agentring.ExploreOptions{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(AllPlacements(6)) {
		t.Fatalf("%d rows for %d placements", len(par), len(AllPlacements(6)))
	}
	seq, err := ExploreAllStream(context.Background(), agentring.BiNative, "biring", 6, nil, agentring.ExploreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range par {
		if !r.Report.Complete {
			t.Errorf("homes=%v: incomplete exploration", r.Homes)
		}
		if r.Report.Counterexample != nil {
			t.Errorf("homes=%v: counterexample: %s", r.Homes, r.Report.Counterexample.Reason)
		}
		if s := seq[i].Report; s.States != r.Report.States || s.DistinctTerminals != r.Report.DistinctTerminals {
			t.Errorf("homes=%v: parallel covers %d states / %d terminals, sequential %d / %d",
				r.Homes, r.Report.States, r.Report.DistinctTerminals, s.States, s.DistinctTerminals)
		}
	}
}
