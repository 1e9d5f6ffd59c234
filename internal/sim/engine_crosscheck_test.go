package sim_test

import (
	"slices"
	"testing"

	"agentring/internal/reference"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// chattyRef and listenerRef are the reference forms of the checkpoint
// fixture's programs (sim.Chatty, sim.Listener).
func chattyRef(hops int) reference.Func {
	return func(api reference.API) error {
		api.Meter().Set(2)
		api.ReleaseToken()
		for left := hops; left > 0; left-- {
			api.Broadcast(left)
			api.Move()
			api.TokensHere()
			api.AgentsHere()
		}
		return nil
	}
}

func listenerRef(want int) reference.Func {
	return func(api reference.API) error {
		got := 0
		for got < want {
			got += len(api.AwaitMessages())
		}
		return nil
	}
}

// crosscheckEngine builds one engine over the checkpoint fixture (two
// chatty walkers, a listener and a transient fault — see cpSetup), as
// frames or as their reference forms.
func crosscheckEngine(t *testing.T, ref bool) *sim.Engine {
	t.Helper()
	programs := []sim.Program{sim.Chatty(7), sim.Chatty(5), sim.Listener(3)}
	if ref {
		programs = []sim.Program{
			reference.Program(t, chattyRef(7)),
			reference.Program(t, chattyRef(5)),
			reference.Program(t, listenerRef(3)),
		}
	}
	e, err := sim.NewEngine(ring.MustNew(6), []int{0, 2, 4}, programs,
		sim.Options{
			TrackState: true,
			Faults: sim.FaultSchedule{
				{Step: 3, From: 1},
				{Step: 9, From: 1, Up: true},
			},
		})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// TestFrameCoroutineCheckpointCrossCheck drives three engines through
// one schedule in lockstep and demands they agree at every decision
// point:
//
//   - ref runs the reference forms of the programs on the coroutine
//     adapter — the semantics of record;
//   - frm runs the programs' frames, straight through;
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
// indistinguishable from the reference.
func TestFrameCoroutineCheckpointCrossCheck(t *testing.T) {
	ref := crosscheckEngine(t, true)
	frm := crosscheckEngine(t, false)
	cpd := crosscheckEngine(t, false)

	cp := &sim.Checkpoint{}
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
		for _, e := range []*sim.Engine{frm, cpd} {
			if id := sim.MailOutsideWakeable(e); id != -1 {
				t.Fatalf("decision %d: agent %d's mailbox and wakeable bit disagree", decision, id)
			}
		}
		if len(want) == 0 {
			break
		}
		// Copy the choice: ref.ApplyChoice edits the list want points
		// into before frm and cpd apply it.
		c := want[(decision*5+2)%len(want)]
		for _, e := range []*sim.Engine{ref, frm, cpd} {
			if err := e.ApplyChoice(c); err != nil {
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
