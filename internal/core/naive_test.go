package core

import (
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

func runNaive(t *testing.T, n int, homes []int) sim.Result {
	t.Helper()
	programs := make([]sim.Program, len(homes))
	for i := range programs {
		programs[i] = NewNaiveEstimator()
	}
	r := ring.MustNew(n)
	e, err := sim.NewEngine(r, homes, programs, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestNaiveSucceedsOnIsolatedAperiodicRing(t *testing.T) {
	// On a plain aperiodic ring the estimate is eventually correct and
	// the naive algorithm coincides with Algorithm 1's deployment.
	homes := []int{0, 1, 5, 7, 8, 10}
	res := runNaive(t, 12, homes)
	if err := verify.CheckDefinition1(12, res); err != nil {
		t.Fatal(err)
	}
}

// TestImpossibilityPumping replays Theorem 5's Fig 7 construction: take
// a base ring R where the naive estimate-and-halt algorithm achieves
// uniform deployment, pump it (repeat the agent pattern 5 times, then
// leave an empty stretch), and observe the same algorithm halt
// non-uniformly — the agents in the repeated region cannot distinguish
// R' from R before they terminate. This is the empirical content of
// "no algorithm solves uniform deployment with termination detection
// without knowledge of k or n".
func TestImpossibilityPumping(t *testing.T) {
	baseN := 12
	baseHomes := []int{0, 1, 5, 7, 8, 10} // aperiodic gaps (1,4,2,1,2,2)

	// Sanity: the algorithm solves R.
	resR := runNaive(t, baseN, baseHomes)
	if err := verify.CheckDefinition1(baseN, resR); err != nil {
		t.Fatalf("naive algorithm must succeed on R: %v", err)
	}

	// Pump: 5 copies of the pattern, then 5n empty nodes. Agents in the
	// middle copies see the fourfold repetition and estimate n=12.
	bigN, bigHomes, err := workload.Pumped(baseN, baseHomes, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	resP := runNaive(t, bigN, bigHomes)
	if !resP.AllHalted() {
		t.Fatal("all naive agents must halt (they always 'detect termination')")
	}
	if verify.IsUniform(bigN, resP.Positions()) {
		t.Fatal("pumped ring must NOT be uniformly deployed — Theorem 5 violated?")
	}
	// The specific failure shape of the proof: halted agents spaced at
	// R's interval d=2, while R' requires interval bigN/k=4.
	gaps := verify.Gaps(bigN, resP.Positions())
	sawBaseSpacing := false
	for _, g := range gaps {
		if g == baseN/len(baseHomes) {
			sawBaseSpacing = true
			break
		}
	}
	if !sawBaseSpacing {
		t.Errorf("expected some agents parked at R's spacing %d; gaps = %v", baseN/len(baseHomes), gaps)
	}
}

// TestRelaxedSolvesThePumpedRing shows the contrast: the paper's
// relaxed algorithm (no termination detection) handles the same pumped
// ring correctly, because its patrolling phase propagates the true ring
// size.
func TestRelaxedSolvesThePumpedRing(t *testing.T) {
	baseN := 12
	baseHomes := []int{0, 1, 5, 7, 8, 10}
	bigN, bigHomes, err := workload.Pumped(baseN, baseHomes, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tryRelaxed(bigN, bigHomes, sim.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckDefinition2(bigN, res); err != nil {
		t.Fatal(err)
	}
}
