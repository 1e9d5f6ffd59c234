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

// runAlg1 executes Algorithm 1 on the given configuration and returns
// the result.
func runAlg1(t *testing.T, n int, homes []int, know Knowledge, sched sim.Scheduler) sim.Result {
	t.Helper()
	value := len(homes)
	if know == KnowNodes {
		value = n
	}
	programs := make([]sim.Program, len(homes))
	for i := range programs {
		p, err := NewAlg1(know, value)
		if err != nil {
			t.Fatal(err)
		}
		programs[i] = p
	}
	r := ring.MustNew(n)
	e, err := sim.NewEngine(r, homes, programs, sim.Options{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestNewAlg1Validation(t *testing.T) {
	if _, err := NewAlg1(Knowledge(0), 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad knowledge err = %v", err)
	}
	if _, err := NewAlg1(KnowAgents, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad value err = %v", err)
	}
}

func TestAlg1Fig2(t *testing.T) {
	// n=16, k=4 as in Fig 2, from a scattered start.
	homes := []int{0, 1, 5, 11}
	res := runAlg1(t, 16, homes, KnowAgents, nil)
	if err := verify.CheckDefinition1(16, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg1Fig4BaseAndTargets(t *testing.T) {
	// Fig 4's 6-agent ring: a periodic example with two base nodes. We
	// use gaps (1,2,3,1,2,3) on a 12-ring (symmetry degree 2, matching
	// the figure's structure of two identical halves). Every agent must
	// end on a distinct target with uniform gaps of 2.
	homes := []int{0, 1, 3, 6, 7, 9}
	res := runAlg1(t, 12, homes, KnowAgents, nil)
	if err := verify.CheckDefinition1(12, res); err != nil {
		t.Fatal(err)
	}
	// With two base nodes 6 apart, agents from each half deploy into
	// their own half: each agent's move count is bounded by disBase +
	// target offset < n/l + n/k*k... every agent must move at most
	// n (selection) + 2n (deployment).
	for i, a := range res.Agents {
		if a.Moves > 3*12 {
			t.Errorf("agent %d moved %d times, beyond the 3n bound", i, a.Moves)
		}
	}
}

func TestAlg1KnowledgeOfNEquivalent(t *testing.T) {
	homes := []int{2, 5, 6, 13, 17}
	resK := runAlg1(t, 20, homes, KnowAgents, sim.NewRoundRobin())
	resN := runAlg1(t, 20, homes, KnowNodes, sim.NewRoundRobin())
	if err := verify.CheckDefinition1(20, resK); err != nil {
		t.Fatalf("know-k: %v", err)
	}
	if err := verify.CheckDefinition1(20, resN); err != nil {
		t.Fatalf("know-n: %v", err)
	}
	// The two knowledge variants must land every agent on the same node.
	for i := range homes {
		if resK.Agents[i].Node != resN.Agents[i].Node {
			t.Errorf("agent %d: know-k node %d != know-n node %d",
				i, resK.Agents[i].Node, resN.Agents[i].Node)
		}
	}
}

func TestAlg1UnevenDivision(t *testing.T) {
	// n=10, k=3: target gaps 3,3,4.
	homes := []int{0, 1, 2}
	res := runAlg1(t, 10, homes, KnowAgents, nil)
	if err := verify.CheckDefinition1(10, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg1SingleAgent(t *testing.T) {
	res := runAlg1(t, 7, []int{3}, KnowAgents, nil)
	if err := verify.CheckDefinition1(7, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg1FullRing(t *testing.T) {
	// k == n: everyone is already on a distinct node with gap 1;
	// distance sequence all-1s, symmetry degree k.
	homes := make([]int, 6)
	for i := range homes {
		homes[i] = i
	}
	res := runAlg1(t, 6, homes, KnowAgents, nil)
	if err := verify.CheckDefinition1(6, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg1AllSchedulers(t *testing.T) {
	homes := []int{0, 2, 3, 9, 10, 15}
	scheds := map[string]func() sim.Scheduler{
		"roundrobin":  func() sim.Scheduler { return sim.NewRoundRobin() },
		"random":      func() sim.Scheduler { return sim.NewRandom(5) },
		"synchronous": func() sim.Scheduler { return sim.NewSynchronous() },
		"adversarial": func() sim.Scheduler { return sim.NewAdversarial(7) },
	}
	var nodes []int
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			res := runAlg1(t, 18, homes, KnowAgents, mk())
			if err := verify.CheckDefinition1(18, res); err != nil {
				t.Fatal(err)
			}
			// Final positions must be schedule-independent: the algorithm
			// is deterministic in its decisions.
			if nodes == nil {
				nodes = res.Positions()
			} else {
				for i, p := range res.Positions() {
					if p != nodes[i] {
						t.Errorf("agent %d node %d differs from baseline %d", i, p, nodes[i])
					}
				}
			}
		})
	}
}

func TestAlg1RandomConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(80)
		k := 1 + rng.Intn(n)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runAlg1(t, n, homes, KnowAgents, sim.NewRandom(int64(trial)))
		if err := verify.CheckDefinition1(n, res); err != nil {
			t.Fatalf("n=%d k=%d homes=%v: %v", n, k, homes, err)
		}
	}
}

func TestAlg1PeriodicConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct{ n, k, l int }{
		{12, 6, 2}, {12, 6, 3}, {24, 8, 4}, {36, 12, 6}, {20, 4, 4},
	}
	for _, c := range cases {
		homes, err := workload.PeriodicWithDegree(c.n, c.k, c.l, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runAlg1(t, c.n, homes, KnowAgents, nil)
		if err := verify.CheckDefinition1(c.n, res); err != nil {
			t.Fatalf("n=%d k=%d l=%d: %v", c.n, c.k, c.l, err)
		}
	}
}

func TestAlg1ComplexityBounds(t *testing.T) {
	// Table 1 row: O(k log n) memory (= k + O(1) words), O(n) time,
	// O(kn) total moves. Check the concrete paper bounds: each agent
	// moves at most 3n (1 circuit + <=2n deployment) and stores k+O(1)
	// words; ideal time <= 3n rounds.
	n, k := 60, 12
	homes, err := workload.Clustered(n, k)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewSynchronous()
	res := runAlg1(t, n, homes, KnowAgents, sched)
	if err := verify.CheckDefinition1(n, res); err != nil {
		t.Fatal(err)
	}
	if res.TotalMoves > 3*n*k {
		t.Errorf("total moves %d exceed 3nk=%d", res.TotalMoves, 3*n*k)
	}
	for i, a := range res.Agents {
		if a.Moves > 3*n {
			t.Errorf("agent %d moves %d exceed 3n=%d", i, a.Moves, 3*n)
		}
		if a.PeakWords > k+8 {
			t.Errorf("agent %d peak memory %d words exceeds k+8=%d", i, a.PeakWords, k+8)
		}
	}
	if res.Rounds > 3*n {
		t.Errorf("ideal time %d rounds exceeds 3n=%d", res.Rounds, 3*n)
	}
}
