package baseline

import (
	"math/rand"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

func TestNewFirstFitValidation(t *testing.T) {
	for _, c := range []struct{ n, k int }{{0, 1}, {4, 0}, {3, 5}} {
		if _, err := NewFirstFit(c.n, c.k); err == nil {
			t.Errorf("NewFirstFit(%d,%d) must fail", c.n, c.k)
		}
	}
}

func runFirstFit(t *testing.T, n int, homes []int, seed int64) sim.Result {
	t.Helper()
	programs := make([]sim.Program, len(homes))
	for i := range programs {
		p, err := NewFirstFit(n, len(homes))
		if err != nil {
			t.Fatal(err)
		}
		programs[i] = p
	}
	e, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{Scheduler: sim.NewRandom(seed)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFirstFitAlwaysTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(40)
		k := 2 + rng.Intn(n/2)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runFirstFit(t, n, homes, int64(trial))
		if !res.AllHalted() {
			t.Fatalf("n=%d k=%d: agents did not halt", n, k)
		}
	}
}

func TestFirstFitMostlyFailsUniformity(t *testing.T) {
	// The ablation claim: without a common base node, exact uniform
	// deployment is rare. Over 40 random clustered instances the
	// heuristic must fail at least half the time (in practice nearly
	// always); if it started to succeed broadly, the experiment that
	// motivates the selection phase would be meaningless.
	rng := rand.New(rand.NewSource(5))
	failures := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		n := 12 + rng.Intn(36)
		k := 3 + rng.Intn(n/4)
		homes, err := workload.Clustered(n, k)
		if err != nil {
			t.Fatal(err)
		}
		res := runFirstFit(t, n, homes, int64(trial))
		if !verify.IsUniform(n, res.Positions()) {
			failures++
		}
	}
	if failures < trials/2 {
		t.Errorf("FirstFit failed uniformity only %d/%d times; expected it to fail most runs", failures, trials)
	}
}
