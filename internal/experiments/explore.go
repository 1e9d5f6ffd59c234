package experiments

import (
	"context"
	"fmt"
	"strings"

	"agentring"
	"agentring/internal/pool"
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
	return placements(n, true)
}

// placements enumerates the non-empty sets of home nodes of an n-node
// substrate in bitmask order, keeping only the least rotation of each
// orbit when upToRotation is set.
func placements(n int, upToRotation bool) [][]int {
	var out [][]int
next:
	for mask := 1; mask < 1<<n; mask++ {
		for r := 1; upToRotation && r < n; r++ {
			if (mask>>r|mask<<(n-r))&(1<<n-1) < mask {
				continue next
			}
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
// or setup error in placement order aborts the sweep, because a single
// failing schedule already refutes the universally quantified claim
// under test.
//
// Placements are deduplicated up to rotation of the node numbering
// (AllPlacements) exactly when that is sound: on the rotation-symmetric
// substrates (ring, biring) without faults. A fault schedule names a
// concrete edge and breaks the symmetry, and tori and trees have none
// to begin with, so those placements are enumerated exhaustively.
//
// opts.Workers placements are explored at once, by the calling
// goroutine and opts.Workers-1 more, each running one search at a
// time; values <= 1 explore them one at a time on the calling
// goroutine. Each finished row is handed to emit in placement order, as
// soon as it and every row before it have finished, so a consumer (the
// explore CLI's NDJSON mode) reports progress on sweeps that take
// minutes instead of going silent until the end; emit is never called
// concurrently, and nil emit just collects. A counterexample's row is
// emitted and returned before the error. When a placement fails, the
// placements before it still finish and those after it are cancelled
// and never emitted, so every Workers value returns the same rows and
// the same error. Cancelling ctx aborts the sweep mid-search; the rows
// finished so far, a contiguous prefix in placement order, are returned
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
	symmetric := len(faults) == 0 && (topo.Kind() == agentring.KindRing || topo.Kind() == agentring.KindBiRing)
	all := placements(n, symmetric)
	found := make([]*ExploreRow, len(all))
	rows := make([]ExploreRow, 0, len(all))
	err = pool.Run(ctx, len(all), opts.Workers, func(ctx context.Context, i int) error {
		homes := all[i]
		rep, err := agentring.Explore(ctx, alg, agentring.Config{Topology: topo, Homes: homes, Faults: faults}, opts)
		if err != nil {
			return fmt.Errorf("explore %s on %s homes=%v: %w", alg, topo, homes, err)
		}
		found[i] = &ExploreRow{Algorithm: alg, N: n, Homes: homes, Report: rep}
		if rep.Counterexample != nil {
			return fmt.Errorf("explore %s on %s homes=%v: counterexample: %s",
				alg, topo, homes, rep.Counterexample.Reason)
		}
		return nil
	}, func(i int) {
		if r := found[i]; r != nil {
			rows = append(rows, *r)
			if emit != nil {
				emit(*r)
			}
		}
	})
	return rows, err
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
