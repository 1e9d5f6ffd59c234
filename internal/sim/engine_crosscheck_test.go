package sim

import (
	"slices"
	"testing"

	"agentring/internal/ring"
)

// crosscheckEngine builds one engine over the checkpoint fixture
// (chatty walkers + a listener + a transient fault — see cpSetup),
// optionally on the coroutine path.
func crosscheckEngine(t *testing.T, coroutines bool) *Engine {
	t.Helper()
	programs := []Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}}
	if coroutines {
		for i, p := range programs {
			programs[i] = coroutineOnly(p)
		}
	}
	e, err := NewEngine(ring.MustNew(6), []ring.NodeID{0, 2, 4}, programs,
		Options{
			TrackState: true,
			Faults: FaultSchedule{
				{Step: 3, From: 1},
				{Step: 9, From: 1, Up: true},
			},
		})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// mailOutsideWakeable returns an agent whose mailbox is nil while it is
// wakeable or non-nil while it is not, or -1: checkpoints flatten the
// wakeable agents' mailboxes only, so the two must agree.
func mailOutsideWakeable(e *Engine) int {
	for id := range e.mailbox {
		if (e.mailbox[id] != nil) != e.wakeable.has(id) {
			return id
		}
	}
	return -1
}

// TestFrameCoroutineCheckpointCrossCheck drives three engines through
// one schedule in lockstep and demands they agree at every decision
// point:
//
//   - ref runs the programs as coroutines — the semantics of record
//     (it is the code path the golden traces pinned long before frames
//     existed);
//   - frm runs the same programs as frames, straight through;
//   - cpd runs frames but is forced through Checkpoint/Restore at
//     every single decision — and every fourth decision is abandoned
//     entirely and replaced by a fresh engine restored from the
//     checkpoint.
//
// The frame engines must also hold mail exactly in their wakeable
// agents at every point (the listener waits on the walkers' broadcasts).
//
// Agreement on the enabled sets and the configuration key at every
// point is the engine-level "restore ≡ replay" guarantee the explorer's
// checkpoint search builds on: a checkpointed continuation is
// indistinguishable from the uninterrupted run, which is itself
// indistinguishable from the coroutine reference.
func TestFrameCoroutineCheckpointCrossCheck(t *testing.T) {
	ref := crosscheckEngine(t, true)
	frm := crosscheckEngine(t, false)
	cpd := crosscheckEngine(t, false)
	if ref.Checkpointable() {
		t.Fatal("coroutine engine claims to be checkpointable")
	}
	if !cpd.Checkpointable() {
		t.Fatal("frame engine is not checkpointable")
	}

	cp := &Checkpoint{}
	for decision := 0; ; decision++ {
		want := ref.DecisionPoint()
		if got := frm.DecisionPoint(); !slices.Equal(got, want) {
			t.Fatalf("decision %d: frame enabled set %v, coroutine %v", decision, got, want)
		}
		// Round-trip the checkpointed engine before it even looks at
		// the decision: capture, restore in place, and every fourth
		// decision throw the engine away and resume a fresh one from
		// the checkpoint.
		if err := cpd.CheckpointTo(cp); err != nil {
			t.Fatalf("decision %d: CheckpointTo: %v", decision, err)
		}
		if decision%4 == 3 {
			cpd = crosscheckEngine(t, false)
		}
		if err := cpd.Restore(cp); err != nil {
			t.Fatalf("decision %d: Restore: %v", decision, err)
		}
		if got := cpd.DecisionPoint(); !slices.Equal(got, want) {
			t.Fatalf("decision %d: checkpointed enabled set %v, coroutine %v", decision, got, want)
		}
		if got, want := frm.Snapshot().Key(), ref.Snapshot().Key(); got != want {
			t.Fatalf("decision %d: frame key %x, coroutine %x", decision, got, want)
		}
		if got, want := cpd.StateKey(), ref.Snapshot().Key(); got != want {
			t.Fatalf("decision %d: checkpointed key %x, coroutine %x", decision, got, want)
		}
		for _, e := range []*Engine{frm, cpd} {
			if id := mailOutsideWakeable(e); id != -1 {
				t.Fatalf("decision %d: agent %d has mailbox %v but wakeable %v", decision, id, e.mailbox[id], e.wakeable.has(id))
			}
		}
		if len(want) == 0 {
			break
		}
		pick := (decision*5 + 2) % len(want)
		for _, e := range []*Engine{ref, frm, cpd} {
			if err := e.ApplyChoice(want[pick]); err != nil {
				t.Fatalf("decision %d: ApplyChoice: %v", decision, err)
			}
		}
	}

	refRes, cpdRes := ref.ResultNow(), cpd.ResultNow()
	if !refRes.Quiesced || !cpdRes.Quiesced {
		t.Fatalf("runs did not quiesce: ref=%v cpd=%v", refRes.Quiesced, cpdRes.Quiesced)
	}
	if got, want := cpdRes.Positions(), refRes.Positions(); !slices.Equal(got, want) {
		t.Fatalf("final positions %v, coroutine reference %v", got, want)
	}
	if !slices.Equal(cpdRes.Tokens, refRes.Tokens) {
		t.Fatalf("final tokens %v, coroutine reference %v", cpdRes.Tokens, refRes.Tokens)
	}
	if cpdRes.TotalMoves != refRes.TotalMoves || cpdRes.Steps != refRes.Steps {
		t.Fatalf("moves/steps %d/%d, coroutine reference %d/%d",
			cpdRes.TotalMoves, cpdRes.Steps, refRes.TotalMoves, refRes.Steps)
	}
}
