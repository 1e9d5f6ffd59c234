package agentring_test

import (
	"context"
	"strings"
	"testing"

	"agentring"
	"agentring/internal/experiments"
	"agentring/internal/jobs"
)

// TestExploreNativeTransientFaultEveryPlacement is the dynamic-topology
// counterpart of the static exhaustive explorations: for every initial
// configuration of every ring with n <= 5 (every placement — faults
// break rotation symmetry, so no orbit deduplication), Algorithm 1 must
// deploy uniformly under EVERY asynchronous schedule while one link
// fails early and is repaired late. Completeness of each search makes
// this a mechanically checked proof on these instances.
func TestExploreNativeTransientFaultEveryPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive schedule-space sweep")
	}
	for n := 2; n <= 5; n++ {
		// The edge leaving node 0 fails before anything moves and is
		// repaired only after 3n actions — long enough that agents pile
		// up frozen behind the cut on many schedules.
		faults := []agentring.FaultEvent{
			{Step: 1, From: 0, Port: 0, Up: false},
			{Step: 3 * n, From: 0, Port: 0, Up: true},
		}
		for mask := 1; mask < 1<<n; mask++ {
			var homes []int
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					homes = append(homes, v)
				}
			}
			rep, err := agentring.Explore(context.Background(), agentring.Native, agentring.Config{
				N: n, Homes: homes, Faults: faults,
			}, agentring.ExploreOptions{})
			if err != nil {
				t.Fatalf("n=%d homes=%v: %v", n, homes, err)
			}
			if rep.Counterexample != nil {
				t.Fatalf("n=%d homes=%v: counterexample under eventually-repaired fault:\n%s",
					n, homes, rep.Counterexample.Trace)
			}
			if !rep.Complete {
				t.Fatalf("n=%d homes=%v: search incomplete (%d truncated)", n, homes, rep.Truncated)
			}
		}
	}
}

// TestExplorePermanentFaultFindsFrozenSchedule: the same search with
// the repair removed must produce a concrete, replayable counterexample
// — the schedule that drives an agent onto the dead link and leaves it
// frozen there forever.
func TestExplorePermanentFaultFindsFrozenSchedule(t *testing.T) {
	rep, err := agentring.Explore(context.Background(), agentring.Native, agentring.Config{
		N:     4,
		Homes: []int{0, 1},
		Faults: []agentring.FaultEvent{
			{Step: 1, From: 2, Port: 0, Up: false},
		},
	}, agentring.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatal("no counterexample with a permanently failed link")
	}
	if !strings.Contains(cex.Reason, "frozen in transit") {
		t.Fatalf("reason = %q, want frozen-in-transit", cex.Reason)
	}
	if len(cex.Prefix) == 0 || cex.Trace == "" {
		t.Fatalf("counterexample not replayable: %+v", cex)
	}
	if agentring.IsUniform(4, cex.Positions) {
		t.Fatalf("frozen terminal positions %v are uniform; expected a blocked deployment", cex.Positions)
	}
	if rep.Faults == "" {
		t.Error("report does not echo the fault schedule")
	}
}

// TestDynRingSweepTransientUniform: the DynRing workload family's
// eventually-repaired plans leave every grid row uniform — a bounded
// outage is indistinguishable from asynchrony the algorithms already
// tolerate. (The sweep-level counterpart of the exhaustive exploration
// above, on real Table 1 sizes.)
func TestDynRingSweepTransientUniform(t *testing.T) {
	sweep := func(ns, ks []int, plan string) []jobs.CellResult {
		t.Helper()
		res, err := jobs.Execute(jobs.Spec{
			Kind: jobs.KindSweep, Algorithm: "native", Ns: ns, Ks: ks,
			Seed: 1, Scheduler: "synchronous", Faults: plan,
		}, 0)
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		return res.Cells
	}
	for _, plan := range []string{experiments.FaultPlanTransient, experiments.FaultPlanChurn} {
		for _, r := range sweep([]int{32, 64}, []int{4, 8}, plan) {
			if !r.Uniform {
				t.Errorf("%s: n=%d k=%d not uniform under eventually-repaired faults", plan, r.N, r.K)
			}
		}
	}
	// The permanent plan must break at least the configurations whose
	// deployment needs the dead link — and must never panic or error.
	broken := 0
	for _, r := range sweep([]int{32}, []int{4}, experiments.FaultPlanPermanent) {
		if !r.Uniform {
			broken++
		}
	}
	if broken == 0 {
		t.Error("permanent link failure broke no configuration; expected blocked deployments")
	}
}
