package core

import (
	"math/rand"
	"reflect"
	"slices"
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
		if !eng.Checkpointable() {
			t.Fatal("alg2 frames do not checkpoint")
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
	cp, err := first.eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
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
