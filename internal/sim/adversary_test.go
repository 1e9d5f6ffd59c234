package sim

import (
	"errors"
	"testing"

	"agentring/internal/ring"
)

// advSetup builds a tracked adversary engine over a 5-ring with two
// chatty walkers and a listener — the same state surface as cpSetup,
// but with the fault set chosen online instead of scheduled.
func advSetup(t *testing.T, b AdversaryBudget) *Engine {
	t.Helper()
	e, err := NewEngine(ring.MustNew(5),
		[]ring.NodeID{0, 2, 3},
		[]Program{&chatty{hops: 6}, &chatty{hops: 4}, &listener{want: 3}},
		Options{TrackState: true, Adversary: &b})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestAdversaryBudgetValidation(t *testing.T) {
	mk := func(b AdversaryBudget) error {
		_, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{&chatty{hops: 2}},
			Options{Adversary: &b})
		return err
	}
	for _, tc := range []struct {
		name string
		b    AdversaryBudget
	}{
		{"zero concurrent", AdversaryBudget{MaxConcurrent: 0, RepairWithin: 1}},
		{"zero repair window", AdversaryBudget{MaxConcurrent: 1, RepairWithin: 0}},
		{"negative total", AdversaryBudget{MaxConcurrent: 1, RepairWithin: 1, MaxTotal: -1}},
	} {
		if err := mk(tc.b); !errors.Is(err, ErrBadSetup) {
			t.Errorf("%s: err = %v, want ErrBadSetup", tc.name, err)
		}
	}
	// MaxTotal defaults to MaxConcurrent, and the normalized budget is
	// readable off the engine.
	e := advSetup(t, AdversaryBudget{MaxConcurrent: 2, RepairWithin: 3})
	if got := e.Adversary(); got == nil || got.MaxTotal != 2 || got.MaxConcurrent != 2 || got.RepairWithin != 3 {
		t.Fatalf("normalized budget = %+v, want MaxTotal defaulted to 2", e.Adversary())
	}
	// An engine without an adversary reports none.
	plain, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{&chatty{hops: 2}}, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if plain.Adversary() != nil {
		t.Fatal("static engine reports an adversary")
	}
}

func TestAdversaryExcludesFaultSchedule(t *testing.T) {
	_, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{&chatty{hops: 2}},
		Options{
			Faults:    FaultSchedule{{Step: 1, From: 0}},
			Adversary: &AdversaryBudget{MaxConcurrent: 1, RepairWithin: 1},
		})
	if !errors.Is(err, ErrBadSetup) {
		t.Fatalf("err = %v, want ErrBadSetup for Adversary+Faults", err)
	}
}

// TestAdversaryChoiceSurface pins the decision-point contract: choice
// order (agent actions, then repairs by rank, then fails by rank), the
// budget gating of fails, and the forced repair once a link is overdue.
func TestAdversaryChoiceSurface(t *testing.T) {
	e := advSetup(t, AdversaryBudget{MaxConcurrent: 1, RepairWithin: 1, MaxTotal: 1})
	m := 5 // directed edges of the 5-ring

	cs := e.DecisionPoint()
	var agents, fails, repairs []Choice
	for _, c := range cs {
		switch c.Kind {
		case ChoiceFail:
			fails = append(fails, c)
		case ChoiceRepair:
			repairs = append(repairs, c)
		default:
			agents = append(agents, c)
		}
	}
	if len(agents) == 0 || len(repairs) != 0 || len(fails) != m {
		t.Fatalf("initial decision point: %d agent, %d repair, %d fail choices; want >0, 0, %d", len(agents), len(repairs), len(fails), m)
	}
	// Fails come after every agent action, ranks ascending, Agent == -1.
	for i, c := range fails {
		if c.Edge != i || c.Agent != -1 {
			t.Fatalf("fail choice %d = %+v, want rank %d with Agent -1", i, c, i)
		}
	}

	// Fail edge rank 1 and watch the surface change: repairs precede
	// fails, and the single-concurrent single-total budget is spent, so
	// no fail is offered anymore.
	var fail1 Choice
	for _, c := range cs {
		if c.Kind == ChoiceFail && c.Edge == 1 {
			fail1 = c
		}
	}
	if err := e.ApplyChoice(fail1); err != nil {
		t.Fatalf("ApplyChoice(fail): %v", err)
	}
	cs = e.DecisionPoint()
	sawRepair := false
	for _, c := range cs {
		switch c.Kind {
		case ChoiceFail:
			t.Fatalf("fail offered with budget spent: %+v", c)
		case ChoiceRepair:
			sawRepair = true
			if c.Edge != 1 || c.Agent != -1 {
				t.Fatalf("repair choice = %+v, want edge 1, Agent -1", c)
			}
		default:
			if sawRepair {
				t.Fatalf("agent choice after repair in %v", cs)
			}
		}
	}
	if !sawRepair {
		t.Fatalf("no repair offered while a link is down: %v", cs)
	}

	// One agent action later the outage is overdue (RepairWithin = 1):
	// the decision point must offer exactly the forced repair.
	if err := e.ApplyChoice(cs[0]); err != nil {
		t.Fatalf("ApplyChoice(agent): %v", err)
	}
	cs = e.DecisionPoint()
	if len(cs) != 1 || cs[0].Kind != ChoiceRepair || cs[0].Edge != 1 {
		t.Fatalf("overdue link: decision point = %v, want the single forced repair of rank 1", cs)
	}
	if err := e.ApplyChoice(cs[0]); err != nil {
		t.Fatalf("ApplyChoice(forced repair): %v", err)
	}
	if got := e.Snapshot().DownEdges; len(got) != 0 {
		t.Fatalf("down edges after repair: %v", got)
	}
}

// advDrive advances the engine count decisions (or to quiescence) with
// a deterministic pick rule that regularly lands on adversary moves,
// returning the StateKey after every action.
func advDrive(t *testing.T, e *Engine, count int) []uint64 {
	t.Helper()
	var keys []uint64
	for len(keys) < count {
		cs := e.DecisionPoint()
		if len(cs) == 0 {
			break
		}
		if e.Steps() >= e.StepLimit() {
			t.Fatal("step limit reached while driving")
		}
		if err := e.ApplyChoice(cs[(e.Steps()*7)%len(cs)]); err != nil {
			t.Fatalf("ApplyChoice at step %d: %v", e.Steps(), err)
		}
		keys = append(keys, e.StateKey())
	}
	return keys
}

func TestAdversaryStateKeyMatchesSnapshotKey(t *testing.T) {
	e := advSetup(t, AdversaryBudget{MaxConcurrent: 2, RepairWithin: 3, MaxTotal: 3})
	for i := 0; ; i++ {
		if got, want := e.StateKey(), e.Snapshot().Key(); got != want {
			t.Fatalf("decision %d: StateKey = %#x, Snapshot().Key = %#x", i, got, want)
		}
		cs := e.DecisionPoint()
		if len(cs) == 0 {
			break
		}
		if err := e.ApplyChoice(cs[(i*7)%len(cs)]); err != nil {
			t.Fatalf("ApplyChoice: %v", err)
		}
	}
}

// TestAdversaryStateKeyFoldsBudgetState pins that the adversary's own
// state is future-determining and keyed: two engines in the same
// visible configuration but with different spent budgets (one failed
// and repaired a link, one never did) must not collide — and the
// snapshot carries the distinguishing fields.
func TestAdversaryStateKeyFoldsBudgetState(t *testing.T) {
	clean := advSetup(t, AdversaryBudget{MaxConcurrent: 1, RepairWithin: 1, MaxTotal: 1})
	spent := advSetup(t, AdversaryBudget{MaxConcurrent: 1, RepairWithin: 1, MaxTotal: 1})
	// Spend the budget on a distant idle edge (rank 4 arrives at node 4;
	// no agent interacts with it this early) and repair it immediately:
	// the visible configuration equals the untouched engine's initial
	// one, but the adversary can still fail a link in one engine and not
	// the other.
	var fail4 Choice
	for _, c := range spent.DecisionPoint() {
		if c.Kind == ChoiceFail && c.Edge == 4 {
			fail4 = c
		}
	}
	if err := spent.ApplyChoice(fail4); err != nil {
		t.Fatalf("fail: %v", err)
	}
	var repair4 Choice
	for _, c := range spent.DecisionPoint() {
		if c.Kind == ChoiceRepair && c.Edge == 4 {
			repair4 = c
		}
	}
	if err := spent.ApplyChoice(repair4); err != nil {
		t.Fatalf("repair: %v", err)
	}
	cc, sc := clean.Snapshot(), spent.Snapshot()
	if !cc.AdvActive || !sc.AdvActive {
		t.Fatal("snapshots do not mark the adversary active")
	}
	if cc.AdvFailures != 0 || sc.AdvFailures != 1 {
		t.Fatalf("AdvFailures = %d/%d, want 0/1", cc.AdvFailures, sc.AdvFailures)
	}
	if clean.StateKey() == spent.StateKey() {
		t.Fatal("engines with different spent budgets share a state key")
	}
	if cc.Key() == sc.Key() {
		t.Fatal("snapshots with different spent budgets share a key")
	}
}

func TestAdversaryCheckpointRestoreContinuesIdentically(t *testing.T) {
	budget := AdversaryBudget{MaxConcurrent: 2, RepairWithin: 2, MaxTotal: 3}
	ref := advSetup(t, budget)
	refKeys := advDrive(t, ref, 1<<30)
	refFinal := ref.Snapshot()
	if len(refKeys) == 0 {
		t.Fatal("reference run executed no actions")
	}

	for at := 0; at <= len(refKeys); at += 3 {
		e := advSetup(t, budget)
		advDrive(t, e, at)
		cp := e.Checkpoint()
		advDrive(t, e, 4)
		if err := e.Restore(cp); err != nil {
			t.Fatalf("Restore at %d: %v", at, err)
		}
		tail := advDrive(t, e, 1<<30)
		if len(tail) != len(refKeys)-at {
			t.Fatalf("restored run at %d: %d more decisions, want %d", at, len(tail), len(refKeys)-at)
		}
		for j, k := range tail {
			if k != refKeys[at+j] {
				t.Fatalf("restored run at %d: key %d = %#x, want %#x", at, j, k, refKeys[at+j])
			}
		}
		if got, want := e.Snapshot().Key(), refFinal.Key(); got != want {
			t.Fatalf("restored run at %d: final snapshot key mismatch", at)
		}
	}
}

// TestAdversaryQuiescenceHasAllLinksUp pins the terminal-shape
// guarantee the explorer's soundness argument leans on: because repairs
// are always offered while any link is down, a quiescent adversary
// engine has every link up and every queue empty.
func TestAdversaryQuiescenceHasAllLinksUp(t *testing.T) {
	e := advSetup(t, AdversaryBudget{MaxConcurrent: 2, RepairWithin: 2, MaxTotal: 3})
	advDrive(t, e, 1<<30)
	res := e.ResultNow()
	if !res.Quiesced {
		t.Fatal("drive stopped before quiescence")
	}
	if !res.QueuesEmpty {
		t.Fatal("quiescent adversary run left agents in transit")
	}
	if down := e.Snapshot().DownEdges; len(down) != 0 {
		t.Fatalf("quiescent adversary run left links down: %v", down)
	}
}

// TestAdversaryRunScheduler drives the adversary through Run's generic
// scheduler loop (the round-robin fast path must be disabled): a Random
// scheduler freely mixes fail/repair moves with agent actions and the
// run must still terminate cleanly with all links up.
func TestAdversaryRunScheduler(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		e, err := NewEngine(ring.MustNew(5),
			[]ring.NodeID{0, 2, 3},
			[]Program{&chatty{hops: 6}, &chatty{hops: 4}, &listener{want: 3}},
			Options{
				TrackState: true,
				Scheduler:  NewRandom(seed),
				Adversary:  &AdversaryBudget{MaxConcurrent: 2, RepairWithin: 2, MaxTotal: 3},
			})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if !res.Quiesced || !res.QueuesEmpty {
			t.Fatalf("seed %d: quiesced=%v queuesEmpty=%v, want true/true", seed, res.Quiesced, res.QueuesEmpty)
		}
		if down := e.Snapshot().DownEdges; len(down) != 0 {
			t.Fatalf("seed %d: links left down: %v", seed, down)
		}
	}
}

// TestAdversaryUnderEveryScheduler runs two walkers on a 6-ring
// against a 1/3 online adversary under each scheduler until the step
// limit. The adversary's moves carry Agent -1, which the Adversarial
// scheduler's per-agent skip counters must leave alone.
func TestAdversaryUnderEveryScheduler(t *testing.T) {
	const limit = 16
	for _, sc := range []struct {
		name string
		s    Scheduler
	}{
		{"roundrobin", NewRoundRobin()},
		{"random", NewRandom(1)},
		{"synchronous", NewSynchronous()},
		{"adversarial", NewAdversarial(DefaultAdversaryBound)},
	} {
		e, err := NewEngine(ring.MustNew(6),
			[]ring.NodeID{0, 3},
			[]Program{walker(1 << 20), walker(1 << 20)},
			Options{
				Scheduler: sc.s,
				MaxSteps:  limit,
				Adversary: &AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3},
			})
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", sc.name, err)
		}
		res, err := e.Run()
		if !errors.Is(err, ErrStepLimit) {
			t.Errorf("%s: Run error = %v, want the step limit", sc.name, err)
		}
		if res.Steps != limit {
			t.Errorf("%s: ran %d steps, want %d", sc.name, res.Steps, limit)
		}
	}
}

// TestAdversaryDesyncChoiceRejected pins the defense against replaying
// a stale adversary choice: failing an already-down edge (or repairing
// an up one) is an ErrBadSetup, not silent corruption.
func TestAdversaryDesyncChoiceRejected(t *testing.T) {
	e := advSetup(t, AdversaryBudget{MaxConcurrent: 2, RepairWithin: 4, MaxTotal: 2})
	var fail0 Choice
	for _, c := range e.DecisionPoint() {
		if c.Kind == ChoiceFail && c.Edge == 0 {
			fail0 = c
		}
	}
	if err := e.ApplyChoice(fail0); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if err := e.ApplyChoice(fail0); !errors.Is(err, ErrBadSetup) {
		t.Fatalf("double fail: err = %v, want ErrBadSetup", err)
	}
	if err := e.ApplyChoice(Choice{Kind: ChoiceRepair, Agent: -1, Node: 3, Edge: 4}); !errors.Is(err, ErrBadSetup) {
		t.Fatalf("repair of an up edge: err = %v, want ErrBadSetup", err)
	}
}
