package sim

import (
	"testing"

	"agentring/internal/ring"
)

// walker2 moves the given number of times, then halts.
func walker2(moves int) Program {
	return ProgramFunc(func(api API) error {
		for i := 0; i < moves; i++ {
			api.Move()
		}
		return nil
	})
}

// TestControlledStopsAtDecisionPoint checks that an exhausted prefix
// stops the run exactly at the next decision point, records the enabled
// set there, and leaves the configuration inspectable.
func TestControlledStopsAtDecisionPoint(t *testing.T) {
	homes := []ring.NodeID{0, 2}
	ctrl := NewControlled([]int{0, 1, 1})
	e, err := NewEngine(ring.MustNew(4), homes, []Program{walker2(3), walker2(3)}, Options{Scheduler: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Quiesced {
		t.Fatal("stopped run reported as quiesced")
	}
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want 3 (the prefix length)", res.Steps)
	}
	if len(ctrl.Record) != 4 {
		t.Fatalf("recorded %d decision points, want prefix+1 = 4", len(ctrl.Record))
	}
	for i, set := range ctrl.Record {
		if len(set) == 0 {
			t.Fatalf("decision point %d recorded an empty enabled set", i)
		}
	}
	cfg := e.Snapshot()
	if cfg.Step != 3 {
		t.Fatalf("snapshot step = %d, want 3", cfg.Step)
	}
}

// TestControlledReplayDeterminism checks the core replay property: the
// same prefix always reaches the same configuration and enabled set.
func TestControlledReplayDeterminism(t *testing.T) {
	homes := []ring.NodeID{0, 2, 4}
	run := func(prefix []int) (Configuration, []Choice) {
		ctrl := NewControlled(prefix)
		e, err := NewEngine(ring.MustNew(6), homes,
			[]Program{walker2(4), walker2(4), walker2(4)},
			Options{Scheduler: ctrl, TrackState: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Snapshot(), ctrl.Record[len(ctrl.Record)-1]
	}
	prefix := []int{0, 1, 2, 0, 1}
	cfg1, en1 := run(prefix)
	cfg2, en2 := run(prefix)
	if cfg1.Key() != cfg2.Key() {
		t.Fatalf("replayed keys differ: %#x vs %#x", cfg1.Key(), cfg2.Key())
	}
	if len(en1) != len(en2) {
		t.Fatalf("replayed enabled sets differ: %v vs %v", en1, en2)
	}
	for i := range en1 {
		if en1[i] != en2[i] {
			t.Fatalf("replayed enabled sets differ at %d: %v vs %v", i, en1[i], en2[i])
		}
	}
}

// TestTrackStateDistinguishesHistories checks that two states with
// identical visible configurations but different program-internal
// progress hash differently: a bare-Move loop leaves no observable
// trace in the visible configuration after a full ring lap, and only
// the folded API-call history separates lap 0 from lap 1.
func TestTrackStateDistinguishesHistories(t *testing.T) {
	const n = 3
	keys := make(map[uint64]int)
	// Stop the single walker mid-flight at step 1 (in transit toward
	// node 1 having moved once) and at step 1+n (same place, one lap
	// later). Visible configurations match; AgentHashes must not.
	for _, steps := range []int{1, 1 + n} {
		prefix := make([]int, steps)
		ctrl := NewControlled(prefix)
		e, err := NewEngine(ring.MustNew(n), []ring.NodeID{0},
			[]Program{walker2(3 * n)}, Options{Scheduler: ctrl, TrackState: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		cfg := e.Snapshot()
		if len(cfg.AgentHashes) != 1 {
			t.Fatalf("AgentHashes = %v, want one entry", cfg.AgentHashes)
		}
		keys[cfg.Key()]++
	}
	if len(keys) != 2 {
		t.Fatalf("states one lap apart collided into %d key(s): %v", len(keys), keys)
	}
}

// TestTrackStateOffByDefault pins that the hashes stay out of snapshots
// unless requested.
func TestTrackStateOffByDefault(t *testing.T) {
	e, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{walker2(2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().AgentHashes; got != nil {
		t.Fatalf("AgentHashes = %v without TrackState", got)
	}
}
