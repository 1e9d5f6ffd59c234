package core

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

func runAlg2(t *testing.T, n int, homes []ring.NodeID, sched sim.Scheduler) sim.Result {
	t.Helper()
	res, err := tryAlg2(n, homes, sched)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func tryAlg2(n int, homes []ring.NodeID, sched sim.Scheduler) (sim.Result, error) {
	programs := make([]sim.Program, len(homes))
	for i := range programs {
		p, err := NewAlg2(len(homes))
		if err != nil {
			return sim.Result{}, err
		}
		programs[i] = p
	}
	r := ring.MustNew(n)
	e, err := sim.NewEngine(r, homes, programs, sim.Options{Scheduler: sched})
	if err != nil {
		return sim.Result{}, err
	}
	return e.Run()
}

func TestNewAlg2Validation(t *testing.T) {
	if _, err := NewAlg2(0); !errors.Is(err, ErrBadParam) {
		t.Errorf("NewAlg2(0) err = %v, want ErrBadParam", err)
	}
}

func TestAlg2Fig5BaseNodeConditions(t *testing.T) {
	// Fig 5: n=18, k=9 with three-fold symmetry; gaps repeat a pattern
	// of three homes per 6-node arc. Homes at 0,1,3, 6,7,9, 12,13,15
	// give gap sequence (1,2,3)^3: base nodes are the homes of the
	// agents starting each arc.
	homes := []ring.NodeID{0, 1, 3, 6, 7, 9, 12, 13, 15}
	res := runAlg2(t, 18, homes, nil)
	if err := verify.CheckDefinition1(18, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg2Fig6IDDerivation(t *testing.T) {
	// Fig 6 shows an active agent deriving ID (5, 2): distance 5 to the
	// next active node passing 2 follower nodes. We reproduce the
	// geometry at the selection phase's first sub-phase where all agents
	// are active: then every ID is (gap to next home, 0). With homes
	// 0,5,9 on a 12-ring, sub-phase 1 IDs are (5,0), (4,0), (3,0): agent
	// 2 (gap 3) is the unique minimum and survives; the others become
	// followers. Agent 2 then finds itself alone: a single base node at
	// node 9. Final deployment must be uniform.
	homes := []ring.NodeID{0, 5, 9}
	res := runAlg2(t, 12, homes, nil)
	if err := verify.CheckDefinition1(12, res); err != nil {
		t.Fatal(err)
	}
	// Base node = home of agent 2 (node 9): targets 9, 1, 5.
	want := map[ring.NodeID]bool{9: true, 1: true, 5: true}
	for i, a := range res.Agents {
		if !want[a.Node] {
			t.Errorf("agent %d halted at %d, want one of {9,1,5}", i, a.Node)
		}
	}
}

func TestAlg2SingleAgent(t *testing.T) {
	res := runAlg2(t, 9, []ring.NodeID{4}, nil)
	if err := verify.CheckDefinition1(9, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg2TwoAgentsDiametric(t *testing.T) {
	// Fully symmetric pair: identical IDs in sub-phase 1, both become
	// leaders, two base nodes.
	res := runAlg2(t, 10, []ring.NodeID{0, 5}, nil)
	if err := verify.CheckDefinition1(10, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg2FullRing(t *testing.T) {
	homes := make([]ring.NodeID, 5)
	for i := range homes {
		homes[i] = ring.NodeID(i)
	}
	res := runAlg2(t, 5, homes, nil)
	if err := verify.CheckDefinition1(5, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg2UnevenDivision(t *testing.T) {
	// n=11, k=3: gaps must be 4,4,3 in some order.
	res := runAlg2(t, 11, []ring.NodeID{0, 1, 2}, nil)
	if err := verify.CheckDefinition1(11, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg2Clustered(t *testing.T) {
	homes, err := workload.Clustered(24, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := runAlg2(t, 24, homes, nil)
	if err := verify.CheckDefinition1(24, res); err != nil {
		t.Fatal(err)
	}
}

func TestAlg2AllSchedulers(t *testing.T) {
	homes := []ring.NodeID{0, 2, 3, 9, 10, 15}
	scheds := map[string]func() sim.Scheduler{
		"roundrobin":  func() sim.Scheduler { return sim.NewRoundRobin() },
		"random":      func() sim.Scheduler { return sim.NewRandom(21) },
		"synchronous": func() sim.Scheduler { return sim.NewSynchronous() },
		"adversarial": func() sim.Scheduler { return sim.NewAdversarial(9) },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			res := runAlg2(t, 18, homes, mk())
			if err := verify.CheckDefinition1(18, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAlg2RandomConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		k := 1 + rng.Intn(n)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tryAlg2(n, homes, sim.NewRandom(int64(trial)))
		if err != nil {
			t.Fatalf("n=%d k=%d homes=%v: %v", n, k, homes, err)
		}
		if err := verify.CheckDefinition1(n, res); err != nil {
			t.Fatalf("n=%d k=%d homes=%v: %v", n, k, homes, err)
		}
	}
}

func TestAlg2PeriodicConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cases := []struct{ n, k, l int }{
		{12, 6, 2}, {12, 6, 3}, {24, 8, 4}, {36, 12, 6}, {20, 4, 4}, {18, 9, 3},
	}
	for _, c := range cases {
		homes, err := workload.PeriodicWithDegree(c.n, c.k, c.l, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runAlg2(t, c.n, homes, nil)
		if err := verify.CheckDefinition1(c.n, res); err != nil {
			t.Fatalf("n=%d k=%d l=%d homes=%v: %v", c.n, c.k, c.l, homes, err)
		}
	}
}

func TestAlg2ConstantMemory(t *testing.T) {
	// The entire point of Algorithm 2: memory must be O(1) words
	// (O(log n) bits) regardless of k, in contrast to Algorithm 1's
	// k+O(1) words.
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{4, 8, 16, 32} {
		n := 4 * k
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runAlg2(t, n, homes, nil)
		if err := verify.CheckDefinition1(n, res); err != nil {
			t.Fatal(err)
		}
		if res.MaxPeakWords() > 20 {
			t.Errorf("k=%d: peak memory %d words, want O(1) (<= 20)", k, res.MaxPeakWords())
		}
	}
}

func TestAlg2MoveAndTimeBounds(t *testing.T) {
	// Theorem 4: O(kn) total moves (selection <= 2kn + deployment
	// <= 2kn) and O(n log k) ideal time. We assert the concrete safe
	// bounds: total moves <= 4kn + 2kn and rounds <= n(ceil(log2 k)+3).
	n, k := 48, 12
	homes, err := workload.Clustered(n, k)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewSynchronous()
	res := runAlg2(t, n, homes, sched)
	if err := verify.CheckDefinition1(n, res); err != nil {
		t.Fatal(err)
	}
	if res.TotalMoves > 6*k*n {
		t.Errorf("total moves %d exceed 6kn=%d", res.TotalMoves, 6*k*n)
	}
	logk := 0
	for v := 1; v < k; v <<= 1 {
		logk++
	}
	if res.Rounds > n*(logk+4) {
		t.Errorf("rounds %d exceed n(log k + 4)=%d", res.Rounds, n*(logk+4))
	}
}

func TestAlg1AndAlg2AgreeOnUniformity(t *testing.T) {
	// Both algorithms must reach uniform deployment from the same
	// configurations (final positions may differ: different base-node
	// criteria).
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(40)
		k := 1 + rng.Intn(n/2+1)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res1 := runAlg1(t, n, homes, KnowAgents, sim.NewRandom(int64(trial)))
		res2 := runAlg2(t, n, homes, sim.NewRandom(int64(trial)))
		if err := verify.CheckDefinition1(n, res1); err != nil {
			t.Fatalf("alg1 n=%d k=%d: %v", n, k, err)
		}
		if err := verify.CheckDefinition1(n, res2); err != nil {
			t.Fatalf("alg2 n=%d k=%d: %v", n, k, err)
		}
	}
}

// alg2Spy runs Algorithm 2+3 like the program it embeds, but keeps the
// frame the engine runs it as, so a test can read the frame's state.
type alg2Spy struct {
	*alg2
	frame *alg2Frame
}

func (s *alg2Spy) Frame() sim.Frame {
	s.frame = &alg2Frame{p: s.alg2}
	return s.frame
}

// TestAlg2CheckpointRestoresSubPhase holds alg2Frame's sub-phase
// counter to the checkpoint contract. The counter feeds only the
// SelectionStats hook, so a restore that lost it would leave positions,
// state keys and traces intact and misreport nothing but how many
// sub-phases an agent took. The test drives one instrumented run choice
// by choice, checkpoints it at the first decision point where an agent
// is in its second or later sub-phase, restores the checkpoint into a
// fresh instrumented engine, continues that engine with the same
// choices, and requires the two halves together to report the
// uninterrupted run's SelectionStats sequence.
func TestAlg2CheckpointRestoresSubPhase(t *testing.T) {
	// On the 8-ring, agent 0's first sub-phase ID (distance 1 to the
	// next active node) is the unique minimum, so it stays active into
	// sub-phase 2 while the others become followers.
	const n = 8
	homes := []ring.NodeID{0, 1, 3}
	type run struct {
		eng   *sim.Engine
		spies []*alg2Spy
		stats []SelectionStats
	}
	newRun := func() *run {
		r := &run{}
		programs := make([]sim.Program, len(homes))
		for i := range programs {
			p, err := NewAlg2Instrumented(len(homes), func(s SelectionStats) { r.stats = append(r.stats, s) })
			if err != nil {
				t.Fatal(err)
			}
			spy := &alg2Spy{alg2: p.(*alg2)}
			r.spies = append(r.spies, spy)
			programs[i] = spy
		}
		eng, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{TrackState: true})
		if err != nil {
			t.Fatal(err)
		}
		r.eng = eng
		return r
	}
	// step applies the first enabled choice, reporting false at
	// quiescence.
	step := func(r *run) bool {
		cs := r.eng.DecisionPoint()
		if len(cs) == 0 {
			return false
		}
		if err := r.eng.ApplyChoice(cs[0]); err != nil {
			t.Fatal(err)
		}
		return true
	}
	inLaterSubPhase := func(r *run) bool {
		for _, s := range r.spies {
			if s.frame.phase == alg2Select && s.frame.subPhase >= 2 {
				return true
			}
		}
		return false
	}

	whole := newRun()
	for step(whole) {
	}
	if len(whole.stats) != len(homes) {
		t.Fatalf("uninterrupted run made %d decisions for %d agents", len(whole.stats), len(homes))
	}

	first := newRun()
	for !inLaterSubPhase(first) {
		if !step(first) {
			t.Fatal("no decision point with an agent in sub-phase 2 or later")
		}
	}
	cp := first.eng.Checkpoint()
	second := newRun()
	if err := second.eng.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for step(second) {
	}
	if got := slices.Concat(first.stats, second.stats); !reflect.DeepEqual(got, whole.stats) {
		t.Fatalf("selection stats after a restore in sub-phase 2: %+v before and %+v after, uninterrupted run %+v",
			first.stats, second.stats, whole.stats)
	}
}
