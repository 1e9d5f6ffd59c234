package core

import (
	"errors"
	"math/rand"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

func runRelaxed(t *testing.T, n int, homes []int, sched sim.Scheduler) sim.Result {
	t.Helper()
	res, err := tryRelaxed(n, homes, sched)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func tryRelaxed(n int, homes []int, sched sim.Scheduler) (sim.Result, error) {
	programs := make([]sim.Program, len(homes))
	for i := range programs {
		programs[i] = NewRelaxed()
	}
	r := ring.MustNew(n)
	e, err := sim.NewEngine(r, homes, programs, sim.Options{Scheduler: sched})
	if err != nil {
		return sim.Result{}, err
	}
	return e.Run()
}

func TestNewRelaxedAblationValidation(t *testing.T) {
	if _, err := NewRelaxedAblation(1, 12); !errors.Is(err, ErrBadParam) {
		t.Errorf("repetitions=1 err = %v, want ErrBadParam", err)
	}
	if _, err := NewRelaxedAblation(4, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("patrol=repetitions err = %v, want ErrBadParam", err)
	}
	if _, err := NewRelaxedAblation(3, 9); err != nil {
		t.Errorf("valid ablation err = %v", err)
	}
}

func TestRelaxedSingleAgent(t *testing.T) {
	res := runRelaxed(t, 6, []int{2}, nil)
	if err := verify.CheckDefinition2(6, res); err != nil {
		t.Fatal(err)
	}
}

func TestRelaxedAperiodicSimple(t *testing.T) {
	// Aperiodic gaps (1,4,2,1,2,2) from Fig 1(a).
	homes := []int{0, 1, 5, 7, 8, 10}
	res := runRelaxed(t, 12, homes, nil)
	if err := verify.CheckDefinition2(12, res); err != nil {
		t.Fatal(err)
	}
}

func TestRelaxedFig9MisestimationRecovery(t *testing.T) {
	// Fig 9: n=27, k=9, gaps (11,1,3,1,3,1,3,1,3). Agents starting
	// inside the (1,3)-repetition misestimate n at 4 and park early; the
	// agent that sees the 11-gap estimates 27 correctly and fixes them
	// during its patrol. Every scheduler must converge to uniform
	// deployment with gap 3.
	n, homes := workload.Fig9()
	scheds := map[string]func() sim.Scheduler{
		"roundrobin":  func() sim.Scheduler { return sim.NewRoundRobin() },
		"random":      func() sim.Scheduler { return sim.NewRandom(3) },
		"synchronous": func() sim.Scheduler { return sim.NewSynchronous() },
		"adversarial": func() sim.Scheduler { return sim.NewAdversarial(6) },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			res := runRelaxed(t, n, homes, mk())
			if err := verify.CheckDefinition2(n, res); err != nil {
				t.Fatal(err)
			}
			// Corrections flowed: at least one patrol message was sent.
			if res.MessagesSent == 0 {
				t.Error("expected correction messages in the Fig 9 scenario")
			}
		})
	}
}

func TestRelaxedFig11PeriodicRing(t *testing.T) {
	// A (6,2)-node periodic ring as in Fig 11: n=12 with gap sequence
	// (2,4)^2 — every agent estimates N=6 (half the truth) yet uniform
	// deployment still holds because the misestimates are globally
	// consistent.
	homes := []int{0, 2, 6, 8}
	res := runRelaxed(t, 12, homes, nil)
	if err := verify.CheckDefinition2(12, res); err != nil {
		t.Fatal(err)
	}
	// In a periodic ring nobody's estimate at least doubles anybody
	// else's, so no agent ever accepts a correction; message *sends* may
	// still occur when patrols pass suspended agents.
	for i, a := range res.Agents {
		// Every agent moves exactly the same amount in a periodic ring:
		// 12 N + its target offset pattern repeats.
		if a.Moves < 12*6 {
			t.Errorf("agent %d moved %d, expected at least 12N=72", i, a.Moves)
		}
	}
}

func TestRelaxedAlreadyUniform(t *testing.T) {
	// Symmetry degree l = k: the estimate is n/k, the cheapest case.
	homes, err := workload.Uniform(24, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := runRelaxed(t, 24, homes, nil)
	if err := verify.CheckDefinition2(24, res); err != nil {
		t.Fatal(err)
	}
	// Each agent travels 12*(n/l) + deployment < 14 n/l with l=k=6,
	// n/l=4: at most 56 moves.
	for i, a := range res.Agents {
		if a.Moves > 14*4 {
			t.Errorf("agent %d moved %d, beyond 14 n/l = %d", i, a.Moves, 14*4)
		}
	}
}

func TestRelaxedClustered(t *testing.T) {
	homes, err := workload.Clustered(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := runRelaxed(t, 20, homes, nil)
	if err := verify.CheckDefinition2(20, res); err != nil {
		t.Fatal(err)
	}
}

func TestRelaxedRandomConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(48)
		k := 1 + rng.Intn(n)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sched sim.Scheduler
		switch trial % 3 {
		case 0:
			sched = sim.NewRandom(int64(trial))
		case 1:
			sched = sim.NewAdversarial(1 + trial%13)
		default:
			sched = sim.NewRoundRobin()
		}
		res, err := tryRelaxed(n, homes, sched)
		if err != nil {
			t.Fatalf("n=%d k=%d homes=%v: %v", n, k, homes, err)
		}
		if err := verify.CheckDefinition2(n, res); err != nil {
			t.Fatalf("n=%d k=%d homes=%v: %v", n, k, homes, err)
		}
	}
}

func TestRelaxedPeriodicDegreesSweep(t *testing.T) {
	// Table 1 column 4: moves scale as O(kn/l). Verify both correctness
	// for every degree and the monotone move decrease as l grows.
	rng := rand.New(rand.NewSource(59))
	n, k := 48, 8
	prevMoves := 1 << 30
	for _, l := range []int{1, 2, 4, 8} {
		homes, err := workload.PeriodicWithDegree(n, k, l, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runRelaxed(t, n, homes, nil)
		if err := verify.CheckDefinition2(n, res); err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		// Paper bound: every agent moves at most 14 n/l.
		bound := 14 * n / l
		for i, a := range res.Agents {
			if a.Moves > bound {
				t.Errorf("l=%d agent %d moved %d > 14n/l = %d", l, i, a.Moves, bound)
			}
		}
		if res.TotalMoves > prevMoves {
			t.Errorf("l=%d total moves %d exceed smaller-l total %d; expected adaptivity", l, res.TotalMoves, prevMoves)
		}
		prevMoves = res.TotalMoves
	}
}

func TestRelaxedMemoryScalesWithFundamental(t *testing.T) {
	// O((k/l) log(n/l)) memory: the stored distance sequence has 4 k/l
	// entries, so peak words shrink as l grows.
	rng := rand.New(rand.NewSource(61))
	n, k := 64, 16
	var atL1, atL8 int
	for _, l := range []int{1, 8} {
		homes, err := workload.PeriodicWithDegree(n, k, l, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runRelaxed(t, n, homes, nil)
		if err := verify.CheckDefinition2(n, res); err != nil {
			t.Fatal(err)
		}
		if l == 1 {
			atL1 = res.MaxPeakWords()
		} else {
			atL8 = res.MaxPeakWords()
		}
	}
	if atL8 >= atL1 {
		t.Errorf("memory at l=8 (%d words) not below l=1 (%d words)", atL8, atL1)
	}
	// Concrete bound: 4*(k/l) + scalars words.
	if atL1 > 4*k+16 {
		t.Errorf("l=1 peak %d words exceeds 4k+16", atL1)
	}
	if atL8 > 4*(k/8)+16 {
		t.Errorf("l=8 peak %d words exceeds 4k/l+16", atL8)
	}
}

func TestRelaxedTimeAdaptivity(t *testing.T) {
	// O(n/l) ideal time: rounds at l=4 must be well below rounds at l=1.
	rng := rand.New(rand.NewSource(67))
	n, k := 48, 8
	rounds := map[int]int{}
	for _, l := range []int{1, 4} {
		homes, err := workload.PeriodicWithDegree(n, k, l, rng)
		if err != nil {
			t.Fatal(err)
		}
		sched := sim.NewSynchronous()
		res := runRelaxed(t, n, homes, sched)
		if err := verify.CheckDefinition2(n, res); err != nil {
			t.Fatal(err)
		}
		rounds[l] = res.Rounds
	}
	if rounds[4] >= rounds[1] {
		t.Errorf("rounds l=4 (%d) not below l=1 (%d)", rounds[4], rounds[1])
	}
}

func TestRelaxedFourfoldRuleAblation(t *testing.T) {
	// Why four repetitions? With only two, Lemma 2's n' <= n/2 guarantee
	// breaks: a misestimator can estimate *more* than half the ring and
	// the correct patroller's budget may no longer cover it; worse, two
	// repetitions can arise from non-periodic coincidences. We search
	// for a configuration where the 2-repetition variant fails to reach
	// uniform deployment while the 4-repetition algorithm succeeds.
	mkPrograms := func(k, reps, patrol int, t *testing.T) []sim.Program {
		programs := make([]sim.Program, k)
		for i := range programs {
			p, err := NewRelaxedAblation(reps, patrol)
			if err != nil {
				t.Fatal(err)
			}
			programs[i] = p
		}
		return programs
	}
	rng := rand.New(rand.NewSource(71))
	brokeSomewhere := false
	for trial := 0; trial < 80 && !brokeSomewhere; trial++ {
		n := 8 + rng.Intn(40)
		k := 2 + rng.Intn(n/2)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Paper's variant must always succeed.
		res4, err := tryRelaxed(n, homes, sim.NewRoundRobin())
		if err != nil {
			t.Fatalf("4-rep run failed: %v", err)
		}
		if err := verify.CheckDefinition2(n, res4); err != nil {
			t.Fatalf("4-rep not uniform on n=%d k=%d: %v", n, k, err)
		}
		// 2-repetition variant may fail (non-uniform quiescence or a
		// negative catch-up invariant error).
		r := ring.MustNew(n)
		e, err := sim.NewEngine(r, homes, mkPrograms(k, 2, 6, t), sim.Options{Scheduler: sim.NewRoundRobin()})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := e.Run()
		if err != nil || verify.CheckDefinition2(n, res2) != nil {
			brokeSomewhere = true
		}
	}
	if !brokeSomewhere {
		t.Error("2-repetition estimation never failed; expected at least one failure justifying the paper's 4-repetition rule")
	}
}

func TestRelaxedAllSchedulersRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	homes, err := workload.Random(30, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	scheds := map[string]func() sim.Scheduler{
		"roundrobin":  func() sim.Scheduler { return sim.NewRoundRobin() },
		"random":      func() sim.Scheduler { return sim.NewRandom(17) },
		"synchronous": func() sim.Scheduler { return sim.NewSynchronous() },
		"adversarial": func() sim.Scheduler { return sim.NewAdversarial(11) },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			res := runRelaxed(t, 30, homes, mk())
			if err := verify.CheckDefinition2(30, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}
