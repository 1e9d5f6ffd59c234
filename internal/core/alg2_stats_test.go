package core

import (
	"math/rand"
	"reflect"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

// runAlg2Instrumented runs Algorithm 2+3 collecting per-agent selection
// statistics, once as frames and once forced onto the coroutine path
// under a fresh scheduler from sched (nil for the default). The frame
// must call the selection hook at the same points Run does, so the two
// runs must report identical SelectionStats sequences and outcomes.
func runAlg2Instrumented(t *testing.T, n int, homes []ring.NodeID, sched func() sim.Scheduler) (sim.Result, []SelectionStats) {
	t.Helper()
	run := func(forceCoroutine bool) (sim.Result, []SelectionStats) {
		var stats []SelectionStats
		programs := make([]sim.Program, len(homes))
		for i := range programs {
			p, err := NewAlg2Instrumented(len(homes), func(s SelectionStats) {
				stats = append(stats, s)
			})
			if err != nil {
				t.Fatal(err)
			}
			programs[i] = p
		}
		opts := sim.Options{ForceCoroutine: forceCoroutine}
		if sched != nil {
			opts.Scheduler = sched()
		}
		e, err := sim.NewEngine(ring.MustNew(n), homes, programs, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("run (coroutine=%v): %v", forceCoroutine, err)
		}
		return res, stats
	}
	res, stats := run(false)
	coroRes, coroStats := run(true)
	if !reflect.DeepEqual(stats, coroStats) {
		t.Fatalf("n=%d homes=%v: selection stats diverge:\nframe:     %+v\ncoroutine: %+v", n, homes, stats, coroStats)
	}
	if res.Steps != coroRes.Steps || !reflect.DeepEqual(res.Positions(), coroRes.Positions()) {
		t.Fatalf("n=%d homes=%v: frame run (%d steps, %v) differs from coroutine run (%d steps, %v)",
			n, homes, res.Steps, res.Positions(), coroRes.Steps, coroRes.Positions())
	}
	return res, stats
}

func ceilLog2(k int) int {
	bits := 0
	for v := 1; v < k; v <<= 1 {
		bits++
	}
	return bits
}

// TestAlg2SubPhaseBound validates the Section 3.2 halving argument: the
// number of selection sub-phases any agent executes is at most
// ⌈log₂ k⌉ (+1 for the circuit in which it learns it is alone).
func TestAlg2SubPhaseBound(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(60)
		k := 2 + rng.Intn(n/2)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, stats := runAlg2Instrumented(t, n, homes, func() sim.Scheduler { return sim.NewRandom(int64(trial)) })
		if err := verify.CheckDefinition1(n, res); err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		if len(stats) != k {
			t.Fatalf("n=%d k=%d: %d decisions for %d agents", n, k, len(stats), k)
		}
		bound := ceilLog2(k) + 1
		leaders := 0
		for _, s := range stats {
			if s.SubPhases > bound {
				t.Errorf("n=%d k=%d: %d sub-phases exceed ceil(log2 k)+1 = %d", n, k, s.SubPhases, bound)
			}
			if s.Leader {
				leaders++
			}
		}
		// The number of leaders is the number of base nodes, which must
		// divide k (base-node condition 3).
		if leaders == 0 || k%leaders != 0 {
			t.Errorf("n=%d k=%d: %d leaders do not divide k", n, k, leaders)
		}
	}
}

// TestAlg2ActiveSetHalves checks the per-sub-phase halving directly on
// a known geometry: k=8 clustered agents can keep at most half the
// active set per sub-phase, so nobody exceeds 4 sub-phases (=log2 8 +1).
func TestAlg2SymmetricAllLeadersInOneSubPhase(t *testing.T) {
	// Fully symmetric configuration: every active agent has the same ID
	// in sub-phase 1, so everyone becomes a leader after exactly one
	// sub-phase.
	homes := []ring.NodeID{0, 5, 10, 15}
	res, stats := runAlg2Instrumented(t, 20, homes, nil)
	if err := verify.CheckDefinition1(20, res); err != nil {
		t.Fatal(err)
	}
	for i, s := range stats {
		if !s.Leader {
			t.Errorf("agent decision %d: not a leader in a fully symmetric ring", i)
		}
		if s.SubPhases != 1 {
			t.Errorf("agent decision %d: %d sub-phases, want 1", i, s.SubPhases)
		}
	}
}
