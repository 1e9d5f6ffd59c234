package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"agentring/internal/core"
	"agentring/internal/reference"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

type factory func() (sim.Program, error)

func alg1(k int) factory {
	return func() (sim.Program, error) { return core.NewAlg1(core.KnowAgents, k) }
}

func alg2(k int) factory {
	return func() (sim.Program, error) { return core.NewAlg2(k) }
}

func relaxed() (sim.Program, error) { return core.NewRelaxed(), nil }

// build makes one program from mk per home.
func build(t *testing.T, homeIDs []int, mk factory) []sim.Program {
	t.Helper()
	programs := make([]sim.Program, len(homeIDs))
	for i := range programs {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		programs[i] = p
	}
	return programs
}

// runNet runs one program from mk per home on netsim.
func runNet(t *testing.T, n int, homes []int, mk factory) sim.Result {
	t.Helper()
	res, err := Run(n, homes, build(t, homes, mk), testTimeout)
	if err != nil {
		t.Fatalf("netsim n=%d homes=%v: %v", n, homes, err)
	}
	return res
}

// runBoth runs the algorithm's reference body ref per home on the
// engine (internal/reference, the semantics of record), and one program
// from mk per home on netsim, which steps the algorithm's frames.
func runBoth(t *testing.T, n int, homeIDs []int, ref reference.Func, mk factory) (engine, net sim.Result) {
	t.Helper()
	programs := make([]sim.Program, len(homeIDs))
	for i := range programs {
		programs[i] = reference.Program(t, ref)
	}
	e, err := sim.NewEngine(ring.MustNew(n), homeIDs, programs, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if engine, err = e.Run(); err != nil {
		t.Fatalf("engine n=%d homes=%v: %v", n, homeIDs, err)
	}
	return engine, runNet(t, n, homeIDs, mk)
}

// TestCrossValidateAgainstCoroutineEngine runs Algorithm 1 on both
// runtimes — the deterministic engine (internal/sim) and this
// concurrent message-passing runtime — and demands *identical* final
// positions and move counts. The algorithm's decisions depend only on
// the token geometry, so any divergence would expose a semantics bug in
// one of the runtimes.
func TestCrossValidateAgainstCoroutineEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(60)
		k := 1 + rng.Intn(n)
		homeIDs, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		simRes, netRes := runBoth(t, n, homeIDs, reference.Alg1(core.KnowAgents, k), alg1(k))
		for i := range homeIDs {
			if simRes.Agents[i].Node != netRes.Agents[i].Node || simRes.Agents[i].Moves != netRes.Agents[i].Moves {
				t.Fatalf("n=%d k=%d agent %d: sim node %d (%d moves) != netsim node %d (%d moves) (homes %v)",
					n, k, i, simRes.Agents[i].Node, simRes.Agents[i].Moves,
					netRes.Agents[i].Node, netRes.Agents[i].Moves, homeIDs)
			}
		}
		if simRes.TotalMoves != netRes.TotalMoves {
			t.Fatalf("n=%d k=%d: total moves diverge %d vs %d", n, k, simRes.TotalMoves, netRes.TotalMoves)
		}
	}
}

// TestNetsimUniformDeployment checks the Definition 1 outcome directly
// on the concurrent substrate.
func TestNetsimUniformDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(48)
		k := 1 + rng.Intn(n/2+1)
		homeIDs, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckDefinition1(n, runNet(t, n, homeIDs, alg1(k))); err != nil {
			t.Fatalf("n=%d k=%d homes=%v: %v", n, k, homeIDs, err)
		}
	}
}

// TestNetsimClustered runs the lower-bound configuration concurrently.
func TestNetsimClustered(t *testing.T) {
	const n, k = 64, 16
	homeIDs, err := workload.Clustered(n, k)
	if err != nil {
		t.Fatal(err)
	}
	if res := runNet(t, n, homeIDs, alg1(k)); res.TotalMoves < k*n/16 {
		t.Errorf("moves %d below the Theorem 1 floor %d", res.TotalMoves, k*n/16)
	}
}

// TestAlg2MachineCrossValidation runs Algorithms 2+3 on both runtimes
// and compares the *sorted* final position sets: the target-node set is
// a pure function of the token geometry (leader homes + slot schedule),
// while which follower lands on which slot may legally differ between
// schedules.
func TestAlg2MachineCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(50)
		k := 1 + rng.Intn(n/2+1)
		homeIDs, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		simRes, netRes := runBoth(t, n, homeIDs, reference.Alg2(k, nil), alg2(k))
		if err := verify.CheckDefinition1(n, netRes); err != nil {
			t.Fatalf("netsim alg2 n=%d k=%d homes=%v: %v", n, k, homeIDs, err)
		}
		simPos, netPos := simRes.Positions(), netRes.Positions()
		slices.Sort(simPos)
		slices.Sort(netPos)
		if !slices.Equal(simPos, netPos) {
			t.Fatalf("n=%d k=%d: target sets differ: sim %v vs net %v (homes %v)",
				n, k, simPos, netPos, homeIDs)
		}
	}
}

// TestRelaxedMachineCrossValidation runs the relaxed algorithm on both
// runtimes: each agent's final node AND move count are pure functions
// of the geometry (the catch-up normalizes total moves to 12 x final
// estimate), so they must agree exactly.
func TestRelaxedMachineCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(40)
		k := 1 + rng.Intn(n)
		homeIDs, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		simRes, netRes := runBoth(t, n, homeIDs, reference.Relaxed(), relaxed)
		if err := verify.CheckDefinition2(n, netRes); err != nil {
			t.Fatalf("netsim relaxed n=%d k=%d homes=%v: %v", n, k, homeIDs, err)
		}
		for i := range homeIDs {
			if simRes.Agents[i].Node != netRes.Agents[i].Node || simRes.Agents[i].Moves != netRes.Agents[i].Moves {
				t.Fatalf("n=%d k=%d agent %d: sim node %d (%d moves) != net node %d (%d moves) (homes %v)",
					n, k, i, simRes.Agents[i].Node, simRes.Agents[i].Moves,
					netRes.Agents[i].Node, netRes.Agents[i].Moves, homeIDs)
			}
		}
	}
}

// TestRelaxedMachineFig9 replays the misestimation-recovery scenario on
// the concurrent substrate.
func TestRelaxedMachineFig9(t *testing.T) {
	n, homeIDs := workload.Fig9()
	if err := verify.CheckDefinition2(n, runNet(t, n, homeIDs, relaxed)); err != nil {
		t.Fatalf("fig9: %v", err)
	}
}

// TestAlg2MachineFig5 replays the base-node-conditions example.
func TestAlg2MachineFig5(t *testing.T) {
	homeIDs := []int{0, 1, 3, 6, 7, 9, 12, 13, 15}
	if err := verify.CheckDefinition1(18, runNet(t, 18, homeIDs, alg2(len(homeIDs)))); err != nil {
		t.Fatalf("fig5: %v", err)
	}
}
