package experiments

import (
	"context"
	"fmt"
	"strings"

	"agentring"
)

// ExploreRow is one measured schedule-space exploration.
type ExploreRow struct {
	Algorithm agentring.Algorithm
	N         int
	Homes     []int
	Report    agentring.ExploreReport
}

// AllPlacements enumerates every initial configuration of an n-node
// ring — each non-empty set of distinct home nodes — deduplicated up to
// rotation: the ring is anonymous, so rotated placements generate
// isomorphic schedule spaces and exploring one representative per orbit
// covers them all.
func AllPlacements(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		canonical := true
		for r := 1; r < n; r++ {
			rot := (mask>>r | mask<<(n-r)) & (1<<n - 1)
			if rot < mask {
				canonical = false
				break
			}
		}
		if !canonical {
			continue
		}
		var homes []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				homes = append(homes, v)
			}
		}
		out = append(out, homes)
	}
	return out
}

// AllPlacementsDihedral is AllPlacements deduplicated up to the full
// dihedral group: rotations and reflections of the node numbering.
// Reflection is only a schedule-space symmetry for substrates whose
// dynamics are mirror-invariant — which the explored ring families are
// NOT in general: BiNative breaks chirality by electing its selection
// circuit through port 0 (the forward direction), so mirrored biring
// placements generate genuinely different searches (pinned by
// TestBiNativeChirality). Use this enumeration only when per-placement
// results need not transfer across the reflection (e.g. sampling
// representative placements for cross-checks), never to claim orbit
// coverage; coverage sweeps use AllPlacements.
func AllPlacementsDihedral(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		canonical := true
		for r := 0; r < n && canonical; r++ {
			rot := (mask>>r | mask<<(n-r)) & (1<<n - 1)
			if r > 0 && rot < mask {
				canonical = false
			}
			// The reflection v -> -v mod n of the rotated mask.
			refl := 0
			for v := 0; v < n; v++ {
				if rot&(1<<v) != 0 {
					refl |= 1 << ((n - v) % n)
				}
			}
			if refl < mask {
				canonical = false
			}
		}
		if !canonical {
			continue
		}
		var homes []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				homes = append(homes, v)
			}
		}
		out = append(out, homes)
	}
	return out
}

// ExploreAllStream model-checks one algorithm over the complete
// schedule space of every initial configuration of a substrate, given
// as an agentring.ParseTopology spec ("ring", "biring", "torus=RxC",
// "tree=<edges>"; n sizes the ring families), around an optional fault
// schedule. It returns one row per placement; the first counterexample
// or setup error aborts the sweep, because a single failing schedule
// already refutes the universally quantified claim under test.
//
// Placements are deduplicated up to rotation of the node numbering
// (AllPlacements) exactly when that is sound: on the rotation-symmetric
// substrates (ring, biring) without faults. A fault schedule names a
// concrete edge and breaks the symmetry, and tori and trees have none
// to begin with, so those placements are enumerated exhaustively.
//
// Each finished row is also handed to emit before the next placement's
// exploration starts, so a consumer (the explore CLI's NDJSON mode)
// reports progress on searches that take minutes instead of going
// silent until the end. nil emit just collects. Cancelling ctx aborts
// the sweep mid-search; the rows finished so far are returned
// alongside the context's error.
func ExploreAllStream(ctx context.Context, alg agentring.Algorithm, topology string, n int, faults []agentring.FaultEvent, opts agentring.ExploreOptions, emit func(ExploreRow)) ([]ExploreRow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	topo, err := agentring.ParseTopology(topology, n)
	if err != nil {
		return nil, err
	}
	n = topo.Size()
	// Placement enumeration is 2^n; anything past ~20 nodes is both
	// unexplorable and an int-shift hazard, so fail loudly instead of
	// returning a vacuous "all placements verified".
	const maxAllNodes = 20
	if n > maxAllNodes {
		return nil, fmt.Errorf("substrate %s has %d nodes; exhaustive placement enumeration is capped at %d", topo, n, maxAllNodes)
	}
	var placements [][]int
	if len(faults) == 0 && (topo.Kind() == agentring.KindRing || topo.Kind() == agentring.KindBiRing) {
		placements = AllPlacements(n)
	} else {
		for mask := 1; mask < 1<<n; mask++ {
			var homes []int
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					homes = append(homes, v)
				}
			}
			placements = append(placements, homes)
		}
	}
	rows := make([]ExploreRow, 0, len(placements))
	for _, homes := range placements {
		rep, err := agentring.Explore(ctx, alg, agentring.Config{Topology: topo, Homes: homes, Faults: faults}, opts)
		if err != nil {
			return rows, fmt.Errorf("explore %s on %s homes=%v: %w", alg, topo, homes, err)
		}
		row := ExploreRow{Algorithm: alg, N: n, Homes: homes, Report: rep}
		rows = append(rows, row)
		if emit != nil {
			emit(row)
		}
		if rep.Counterexample != nil {
			return rows, fmt.Errorf("explore %s on %s homes=%v: counterexample: %s",
				alg, topo, homes, rep.Counterexample.Reason)
		}
	}
	return rows, nil
}

// FormatExploreRows renders exploration rows as an aligned text table.
func FormatExploreRows(rows []ExploreRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %4s %-14s %8s %8s %8s %9s %5s %8s %8s\n",
		"algorithm", "n", "homes", "states", "pruned", "replays", "terminals", "cover", "deepest", "verdict")
	for _, r := range rows {
		cover := "full"
		if !r.Report.Complete {
			cover = "partial"
		}
		verdict := "ok"
		if r.Report.Counterexample != nil {
			verdict = "CEX"
		}
		fmt.Fprintf(&b, "%-12s %4d %-14s %8d %8d %8d %9d %5s %8d %8s\n",
			r.Algorithm, r.N, fmt.Sprint(r.Homes), r.Report.States, r.Report.Pruned,
			r.Report.Replays, r.Report.DistinctTerminals, cover, r.Report.Deepest, verdict)
	}
	return b.String()
}
