package sim

import (
	"errors"
	"testing"

	"agentring/internal/ring"
)

// chatty is a FrameSaver test program exercising every checkpointed
// component: it releases a token at home, hops around broadcasting its
// progress, reads tokens and co-location on the way, and halts.
type chatty struct{ hops int }

func (p *chatty) Run(api API) error {
	api.Meter().Set(2)
	api.ReleaseToken()
	for left := p.hops; left > 0; left-- {
		api.Broadcast(left)
		api.Move()
		api.TokensHere()
		api.AgentsHere()
	}
	return nil
}

func (p *chatty) Frame() Frame { return &chattyFrame{p: p} }

type chattyFrame struct {
	p     *chatty
	phase int
	left  int
}

func (f *chattyFrame) Step(api API) Action {
	if f.phase == 0 {
		api.Meter().Set(2)
		api.ReleaseToken()
		f.phase, f.left = 1, f.p.hops
	} else {
		api.TokensHere()
		api.AgentsHere()
	}
	if f.left == 0 {
		return Action{Kind: ActionDone}
	}
	api.Broadcast(f.left)
	f.left--
	return Action{Kind: ActionMove}
}

func (f *chattyFrame) SaveState(buf []int) []int { return append(buf, f.phase, f.left) }

func (f *chattyFrame) LoadState(buf []int) int {
	f.phase, f.left = buf[0], buf[1]
	return 2
}

// listener is a FrameSaver test program that suspends on the mailbox:
// it awaits until it has heard want messages, then halts. It keeps an
// agent in the waiting state with pending broadcasts in flight, so
// checkpoints cover mailboxes and the wakeable set.
type listener struct{ want int }

func (p *listener) Run(api API) error {
	got := 0
	for got < p.want {
		got += len(api.AwaitMessages())
	}
	return nil
}

func (p *listener) Frame() Frame { return &listenerFrame{p: p} }

type listenerFrame struct {
	p     *listener
	phase int
	got   int
}

func (f *listenerFrame) Step(api API) Action {
	if f.phase == 1 {
		f.got += len(api.Messages())
	}
	f.phase = 1
	if f.got >= f.p.want {
		return Action{Kind: ActionDone}
	}
	return Action{Kind: ActionAwait}
}

func (f *listenerFrame) SaveState(buf []int) []int { return append(buf, f.phase, f.got) }

func (f *listenerFrame) LoadState(buf []int) int {
	f.phase, f.got = buf[0], buf[1]
	return 2
}

// cpSetup builds a tracked engine over a 6-ring with two chatty walkers,
// one listener, and a transient link fault — every kind of engine state
// a checkpoint must carry is live somewhere in its run.
func cpSetup(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(ring.MustNew(6),
		[]ring.NodeID{0, 2, 4},
		[]Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}},
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

// drive advances the engine count decisions (or to quiescence) using a
// deterministic pick rule, returning the StateKey after every action.
func drive(t *testing.T, e *Engine, count int) []uint64 {
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
		if err := e.ApplyChoice(cs[(e.Steps()*5)%len(cs)]); err != nil {
			t.Fatalf("ApplyChoice at step %d: %v", e.Steps(), err)
		}
		keys = append(keys, e.StateKey())
	}
	return keys
}

func TestStateKeyMatchesSnapshotKey(t *testing.T) {
	e := cpSetup(t)
	for i := 0; ; i++ {
		if got, want := e.StateKey(), e.Snapshot().Key(); got != want {
			t.Fatalf("decision %d: StateKey = %#x, Snapshot().Key = %#x", i, got, want)
		}
		cs := e.DecisionPoint()
		if len(cs) == 0 {
			break
		}
		if err := e.ApplyChoice(cs[(i*3)%len(cs)]); err != nil {
			t.Fatalf("ApplyChoice: %v", err)
		}
	}
}

func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	// Reference run: drive to quiescence, remembering the key sequence
	// and where each checkpoint was taken.
	ref := cpSetup(t)
	refKeys := drive(t, ref, 1<<30)
	refFinal := ref.Snapshot()

	for at := 0; at <= len(refKeys); at += 3 {
		e := cpSetup(t)
		drive(t, e, at)
		cp, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint at %d: %v", at, err)
		}
		// Keep driving the source engine past the capture point, then
		// restore: the checkpoint must rewind it exactly.
		drive(t, e, 4)
		if err := e.Restore(cp); err != nil {
			t.Fatalf("Restore at %d: %v", at, err)
		}
		tail := drive(t, e, 1<<30)
		if len(tail) != len(refKeys)-at {
			t.Fatalf("restored run at %d: %d more decisions, want %d", at, len(tail), len(refKeys)-at)
		}
		for j, k := range tail {
			if k != refKeys[at+j] {
				t.Fatalf("restored run at %d: key %d = %#x, want %#x", at, j, k, refKeys[at+j])
			}
		}
		if got, want := e.Snapshot(), refFinal; got.Key() != want.Key() {
			t.Fatalf("restored run at %d: final snapshot key mismatch", at)
		}
	}
}

func TestCheckpointRestoresIntoFreshEngine(t *testing.T) {
	src := cpSetup(t)
	drive(t, src, 6)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	srcKeys := drive(t, src, 1<<30)

	dst := cpSetup(t)
	if err := dst.Restore(cp); err != nil {
		t.Fatalf("Restore into fresh engine: %v", err)
	}
	dstKeys := drive(t, dst, 1<<30)
	if len(dstKeys) != len(srcKeys) {
		t.Fatalf("fresh-engine run: %d decisions, want %d", len(dstKeys), len(srcKeys))
	}
	for i := range dstKeys {
		if dstKeys[i] != srcKeys[i] {
			t.Fatalf("fresh-engine run diverged at decision %d", i)
		}
	}
	if dst.Snapshot().Key() != src.Snapshot().Key() {
		t.Fatal("fresh-engine final state differs from source")
	}
}

func TestCheckpointToReusesStorage(t *testing.T) {
	e := cpSetup(t)
	drive(t, e, 5)
	cp := &Checkpoint{}
	if err := e.CheckpointTo(cp); err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	drive(t, e, 3)
	// Warm the capacities, then verify a steady-state capture allocates
	// nothing (the arena/pool contract the explorer relies on).
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.CheckpointTo(cp); err != nil {
			t.Fatalf("CheckpointTo: %v", err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state CheckpointTo allocates %.1f objects per capture, want 0", allocs)
	}
}

func TestStateKeyAllocationFree(t *testing.T) {
	e := cpSetup(t)
	drive(t, e, 5)
	if allocs := testing.AllocsPerRun(20, func() { e.StateKey() }); allocs > 0 {
		t.Errorf("StateKey allocates %.1f objects per call, want 0", allocs)
	}
}

func TestCheckpointablePredicate(t *testing.T) {
	cpable := cpSetup(t)
	if !cpable.Checkpointable() {
		t.Error("FrameSaver engine should be checkpointable")
	}
	// walker implements Framer but not FrameSaver.
	plain, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{walker(3)}, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if plain.Checkpointable() {
		t.Error("frame without FrameSaver should not be checkpointable")
	}
	if _, err := plain.Checkpoint(); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Checkpoint error = %v, want ErrBadSetup", err)
	}
	// ForceCoroutine strips the frames entirely.
	coro, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{&chatty{hops: 2}},
		Options{ForceCoroutine: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if coro.Checkpointable() {
		t.Error("coroutine engine should not be checkpointable")
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	src := cpSetup(t)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	other, err := NewEngine(ring.MustNew(5),
		[]ring.NodeID{0, 2, 4},
		[]Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}},
		Options{TrackState: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := other.Restore(cp); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Restore into different ring size: err = %v, want ErrBadSetup", err)
	}
	untracked, err := NewEngine(ring.MustNew(6),
		[]ring.NodeID{0, 2, 4},
		[]Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}},
		Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := untracked.Restore(cp); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Restore into untracked engine: err = %v, want ErrBadSetup", err)
	}
}

// TestDecisionPointMatchesRun pins the step-driven API to Run: the same
// decision sequence produces the same enabled sets and the same final
// configuration whether the engine drives itself through a Controlled
// scheduler or the caller drives it through DecisionPoint/ApplyChoice.
func TestDecisionPointMatchesRun(t *testing.T) {
	// First pass: record the enabled sets and the picks a deterministic
	// rule makes, via a Controlled-with-Tail run.
	var sets [][]Choice
	var picks []int
	recorder := cpSetup(t)
	// Drive by hand once to learn the full pick sequence.
	for {
		cs := recorder.DecisionPoint()
		if len(cs) == 0 {
			break
		}
		sets = append(sets, append([]Choice(nil), cs...))
		pick := (recorder.Steps() * 5) % len(cs)
		picks = append(picks, pick)
		if err := recorder.ApplyChoice(cs[pick]); err != nil {
			t.Fatalf("ApplyChoice: %v", err)
		}
	}

	// Second pass: a scheduler-driven Run replaying those picks must see
	// the identical enabled sets and reach the identical configuration.
	e, err := NewEngine(ring.MustNew(6),
		[]ring.NodeID{0, 2, 4},
		[]Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}},
		Options{
			TrackState: true,
			Faults: FaultSchedule{
				{Step: 3, From: 1},
				{Step: 9, From: 1, Up: true},
			},
			Scheduler: &Controlled{Prefix: picks},
		})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	seen := 0
	ctrl := e.sched.(*Controlled)
	ctrl.OnDecision = func(_ int, cs []Choice) {
		if seen >= len(sets) {
			t.Fatalf("Run saw more decision points than the step-driven pass (%d)", len(sets))
		}
		want := sets[seen]
		if len(cs) != len(want) {
			t.Fatalf("decision %d: %d choices, want %d", seen, len(cs), len(want))
		}
		for i := range cs {
			if cs[i] != want[i] {
				t.Fatalf("decision %d choice %d: %+v, want %+v", seen, i, cs[i], want[i])
			}
		}
		seen++
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Quiesced {
		t.Error("Run should quiesce on the full pick sequence")
	}
	if seen != len(sets) {
		t.Errorf("Run saw %d decision points, want %d", seen, len(sets))
	}
	if e.Snapshot().Key() != recorder.Snapshot().Key() {
		t.Error("Run and step-driven final configurations differ")
	}
	if got, want := recorder.ResultNow(), res; got.Steps != want.Steps || got.Quiesced != want.Quiesced {
		t.Errorf("ResultNow = steps %d quiesced %v, Run result = steps %d quiesced %v",
			got.Steps, got.Quiesced, want.Steps, want.Quiesced)
	}
}
