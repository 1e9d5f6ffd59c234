package sim

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"agentring/internal/memmeter"
	"agentring/internal/ring"
)

// chatty is a test program exercising every checkpointed component: it
// releases a token at home, hops around broadcasting its progress,
// reads tokens and co-location on the way, and halts.
type chatty struct{ hops int }

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

// listener is a test program that suspends on the mailbox: it awaits
// until it has heard want messages, then halts. It keeps an agent in
// the waiting state with pending broadcasts in flight, so checkpoints
// cover mailboxes and the wakeable set.
type listener struct{ want int }

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
		[]int{0, 2, 4},
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
		cp := e.Checkpoint()
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
	cp := src.Checkpoint()
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

// TestCheckpointablePredicate: every agent is a frame that saves its
// state, so every engine checkpoints, including one without TrackState
// whose agents save no more than a counter.
func TestCheckpointablePredicate(t *testing.T) {
	for _, e := range []*Engine{cpSetup(t), func() *Engine {
		e, err := NewEngine(ring.MustNew(4), []int{0}, []Program{walker(3)}, Options{})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return e
	}()} {
		if !e.Checkpointable() {
			t.Error("engine is not checkpointable")
		}
		if e.Checkpoint() == nil {
			t.Error("Checkpoint returned nil")
		}
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	src := cpSetup(t)
	cp := src.Checkpoint()
	other, err := NewEngine(ring.MustNew(5),
		[]int{0, 2, 4},
		[]Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}},
		Options{TrackState: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := other.Restore(cp); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Restore into different ring size: err = %v, want ErrBadSetup", err)
	}
	untracked, err := NewEngine(ring.MustNew(6),
		[]int{0, 2, 4},
		[]Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}},
		Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := untracked.Restore(cp); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Restore into untracked engine: err = %v, want ErrBadSetup", err)
	}
}

// TestRestoreRejectsOtherAdversary: a checkpoint holds the adversary's
// state (spent fails, outage stamps) exactly when its engine has an
// adversary, so it restores only into an engine that agrees. Restored
// into a plain engine, a checkpoint taken after a fail would leave a
// failed link that no choice repairs. One Checkpoint serves both
// directions: a capture from an engine of another shape lays it out
// afresh.
func TestRestoreRejectsOtherAdversary(t *testing.T) {
	adv := advSetup(t, AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3})
	plain := func() *Engine {
		e, err := NewEngine(ring.MustNew(5),
			[]int{0, 2, 3},
			[]Program{&chatty{hops: 6}, &chatty{hops: 4}, &listener{want: 3}},
			Options{TrackState: true})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return e
	}
	cs := adv.DecisionPoint()
	if c := cs[len(cs)-1]; c.Kind != ChoiceFail {
		t.Fatalf("last choice %+v, want a fail", c)
	} else if err := adv.ApplyChoice(c); err != nil {
		t.Fatalf("ApplyChoice: %v", err)
	}
	cp := &Checkpoint{}
	if err := adv.CheckpointTo(cp); err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	if err := plain().Restore(cp); !errors.Is(err, ErrBadSetup) {
		t.Errorf("adversary checkpoint into a plain engine: err = %v, want ErrBadSetup", err)
	}
	if err := plain().CheckpointTo(cp); err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	if err := adv.Restore(cp); !errors.Is(err, ErrBadSetup) {
		t.Errorf("plain checkpoint into an adversary engine: err = %v, want ErrBadSetup", err)
	}
	if err := plain().Restore(cp); err != nil {
		t.Errorf("plain checkpoint into a plain engine: %v", err)
	}
}

// TestDecisionPointMatchesRun pins the step-driven API to Run: the same
// decision sequence produces the same enabled sets and the same final
// configuration whether the engine drives itself through a Controlled
// scheduler or the caller drives it through DecisionPoint/ApplyChoice.
func TestDecisionPointMatchesRun(t *testing.T) {
	// First pass: drive by hand, recording the enabled sets and the
	// picks a deterministic rule makes.
	var sets [][]Choice
	var picks []int
	recorder := cpSetup(t)
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
	ctrl := NewControlled(picks)
	e, err := NewEngine(ring.MustNew(6),
		[]int{0, 2, 4},
		[]Program{&chatty{hops: 7}, &chatty{hops: 5}, &listener{want: 3}},
		Options{
			TrackState: true,
			Faults: FaultSchedule{
				{Step: 3, From: 1},
				{Step: 9, From: 1, Up: true},
			},
			Scheduler: ctrl,
		})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Quiesced {
		t.Error("Run should quiesce on the full pick sequence")
	}
	if len(ctrl.Record) != len(sets) {
		t.Fatalf("Run saw %d decision points, want %d", len(ctrl.Record), len(sets))
	}
	for d, cs := range ctrl.Record {
		if !slices.Equal(cs, sets[d]) {
			t.Fatalf("decision %d: Run saw %+v, step-driven pass %+v", d, cs, sets[d])
		}
	}
	if e.Snapshot().Key() != recorder.Snapshot().Key() {
		t.Error("Run and step-driven final configurations differ")
	}
	if got, want := recorder.ResultNow(), res; got.Steps != want.Steps || got.Quiesced != want.Quiesced {
		t.Errorf("ResultNow = steps %d quiesced %v, Run result = steps %d quiesced %v",
			got.Steps, got.Quiesced, want.Steps, want.Quiesced)
	}
}

// TestRestoredDecisionPointAppliesDirectly pins the contract the
// explorer's branches rely on: a checkpoint captured right after
// DecisionPoint restores that decision point, so ApplyChoice of any
// choice it returned is valid without calling DecisionPoint again. At
// every decision point of a reference walk, each saved choice applied
// directly to a fresh engine restored from the capture must reach the
// state an engine walking from the root reaches by calling
// DecisionPoint before the same choice, and the two must run on alike:
// state that DecisionPoint changed and the capture missed, such as a
// fault batch it fired, may show only in later keys. The fixtures
// reach the two decision points where DecisionPoint does more than
// list the enabled actions: a fault batch it force-fires because the
// only agent is frozen, and an overdue link whose repair it offers as
// the only choice while agent actions are still enabled.
func TestRestoredDecisionPointAppliesDirectly(t *testing.T) {
	fixtures := []struct {
		name    string
		build   func(t *testing.T) *Engine
		pick    func(decision, choices int) int
		special func(e *Engine, cs []Choice) bool
	}{
		{
			name: "forced fault batch",
			build: func(t *testing.T) *Engine {
				t.Helper()
				e, err := NewEngine(ring.MustNew(3), []int{0}, []Program{&chatty{hops: 4}}, Options{
					TrackState: true,
					Faults:     FaultSchedule{{Step: 1, From: 0}, {Step: 5, From: 0, Up: true}},
				})
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				return e
			},
			pick: func(int, int) int { return 0 },
			// The walker sits frozen on the link that failed at step 1,
			// so the repair due at step 5 fires at step 1.
			special: func(e *Engine, _ []Choice) bool { return e.Steps() == 1 && e.Epoch() == 2 },
		},
		{
			name: "forced repair",
			build: func(t *testing.T) *Engine {
				return advSetup(t, AdversaryBudget{MaxConcurrent: 1, RepairWithin: 2, MaxTotal: 1})
			},
			// Fail the last-offered link at decision 1, then take agent
			// actions until the outage is overdue.
			pick: func(d, n int) int {
				if d == 1 {
					return n - 1
				}
				return 0
			},
			special: func(e *Engine, cs []Choice) bool {
				return len(cs) == 1 && cs[0].Kind == ChoiceRepair && len(e.choices) > 0
			},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			e := fx.build(t)
			var prefix []int
			reached := false
			for d := 0; ; d++ {
				cs := e.DecisionPoint()
				if len(cs) == 0 {
					break
				}
				cp := e.Checkpoint()
				saved := slices.Clone(cs)
				if fx.special(e, saved) {
					reached = true
				}
				for i, c := range saved {
					direct := fx.build(t)
					if err := direct.Restore(cp); err != nil {
						t.Fatalf("decision %d: Restore: %v", d, err)
					}
					if err := direct.ApplyChoice(c); err != nil {
						t.Fatalf("decision %d choice %d: ApplyChoice after Restore: %v", d, i, err)
					}
					ref := walkFromRoot(t, fx.build(t), append(slices.Clip(prefix), i))
					if direct.StateKey() != ref.StateKey() || direct.Snapshot().Key() != ref.Snapshot().Key() {
						t.Fatalf("decision %d choice %d (%+v): restored engine reached key %#x (snapshot %#x), the root walk %#x (snapshot %#x)",
							d, i, c, direct.StateKey(), direct.Snapshot().Key(), ref.StateKey(), ref.Snapshot().Key())
					}
					if !slices.Equal(drive(t, direct, 1<<30), drive(t, ref, 1<<30)) {
						t.Fatalf("decision %d choice %d (%+v): the restored engine's run diverges from the root walk's", d, i, c)
					}
				}
				i := fx.pick(d, len(saved))
				if err := e.ApplyChoice(saved[i]); err != nil {
					t.Fatalf("decision %d: ApplyChoice: %v", d, err)
				}
				prefix = append(prefix, i)
			}
			if !reached {
				t.Fatal("the walk never reached the fixture's special decision point")
			}
		})
	}
}

// walkFromRoot drives e through the decision indices in prefix, calling
// DecisionPoint before every action as Run does.
func walkFromRoot(t *testing.T, e *Engine, prefix []int) *Engine {
	t.Helper()
	for d, i := range prefix {
		if err := e.ApplyChoice(e.DecisionPoint()[i]); err != nil {
			t.Fatalf("root walk, decision %d: %v", d, err)
		}
	}
	return e
}

// fillState sets every field of s, which layout has allocated, to a
// non-zero value by reflection: slice elements (typed tables and arena
// views alike) a value derived from seed, the field and the index,
// bitsets every third member, scalars a value derived from seed. The
// arenas themselves are filled through their views. It fails the test
// on a field type it does not know, and on a table layout left empty,
// so a new engineState field cannot slip past
// TestCopyStateCopiesEveryField unfilled.
func fillState(t *testing.T, s *engineState, seed int) {
	t.Helper()
	errType := reflect.TypeFor[error]()
	meterType := reflect.TypeFor[memmeter.Meter]()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		f := reflect.NewAt(v.Field(i).Type(), unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		x := seed + i + 1
		switch {
		case name == "i32" || name == "u64":
			continue
		case f.Type() == reflect.TypeFor[bitset]():
			b := f.Addr().Interface().(*bitset)
			for _, words := range b.level {
				clear(words)
			}
			b.count = 0
			for j := x % 3; j < b.n; j += 3 {
				b.add(j)
			}
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(int64(x))
		case f.CanUint():
			f.SetUint(uint64(x))
		case f.Kind() == reflect.Slice:
			if f.Len() == 0 {
				t.Fatalf("fillState: layout left table %s empty", name)
			}
			for j := 0; j < f.Len(); j++ {
				el := f.Index(j)
				switch et := el.Type(); {
				case el.CanInt():
					el.SetInt(int64(x*1000 + j + 1))
				case el.CanUint():
					el.SetUint(uint64(x*1000 + j + 1))
				case et == errType:
					el.Set(reflect.ValueOf(fmt.Errorf("agent %d", x*1000+j)))
				case et == meterType:
					el.Addr().Interface().(*memmeter.Meter).Grow(x*1000 + j + 1)
				default:
					t.Fatalf("fillState: field %s has element type %v the filler does not know", name, et)
				}
			}
		default:
			t.Fatalf("fillState: field %s has type %v the filler does not know", name, f.Type())
		}
	}
}

// stateSlices lists every slice of s by field name: the arenas, every
// table, and each level of every bitset.
func stateSlices(s *engineState) map[string]reflect.Value {
	out := make(map[string]reflect.Value)
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch {
		case f.Kind() == reflect.Slice:
			out[name] = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		case f.Type() == reflect.TypeFor[bitset]():
			for l, words := range (*bitset)(unsafe.Pointer(f.UnsafeAddr())).level {
				out[fmt.Sprintf("%s.level[%d]", name, l)] = reflect.ValueOf(words)
			}
		}
	}
	return out
}

// sharedStorage names a slice of a (an arena, a table or a bitset
// level) whose elements overlap those of any slice of b, or returns "".
func sharedStorage(a, b *engineState) string {
	span := func(x reflect.Value) (lo, hi uintptr) {
		lo = x.Pointer()
		return lo, lo + uintptr(x.Len())*x.Type().Elem().Size()
	}
	bs := stateSlices(b)
	for name, x := range stateSlices(a) {
		alo, ahi := span(x)
		for _, y := range bs {
			if blo, bhi := span(y); x.Len() > 0 && y.Len() > 0 && alo < bhi && blo < ahi {
				return name
			}
		}
	}
	return ""
}

// TestCopyStateCopiesEveryField holds copyState, the one copier behind
// CheckpointTo and Restore, to an exact copy of every engineState field
// that shares no storage with its source, into a freshly laid-out
// destination and into one holding another state, and to clearing the
// program errors a destination holds when the source holds none.
func TestCopyStateCopiesEveryField(t *testing.T) {
	// Over 64 agents, nodes and edges, so every bitset has two levels;
	// TrackState and an adversary, so every optional table exists.
	const n, k, m = 70, 65, 140
	laidOut := func() *engineState {
		s := &engineState{}
		s.layout(n, k, m, true, true)
		return s
	}
	src := laidOut()
	fillState(t, src, 0)
	for _, filled := range []bool{false, true} {
		dst := laidOut()
		if filled {
			fillState(t, dst, 1000)
		}
		copyState(dst, src)
		if !reflect.DeepEqual(dst, src) {
			t.Fatalf("filled destination %v: copy differs from source:\n got %+v\nwant %+v", filled, dst, src)
		}
		if f := sharedStorage(dst, src); f != "" {
			t.Fatalf("filled destination %v: %s shares storage with the source", filled, f)
		}
	}
	clean, dst := laidOut(), laidOut()
	fillState(t, dst, 1000)
	copyState(dst, clean)
	if !reflect.DeepEqual(dst, clean) {
		t.Fatalf("error-free source: copy differs: agentErr %v, failed %d", dst.agentErr, dst.failed)
	}
}

// TestLayoutCarvesDisjointViews writes a distinct value through every
// view layout carves — the int32 and uint64 tables and every bitset
// level — and requires each arena slot to be written exactly once: the
// views tile their arenas, so copying an arena copies every table and
// nothing twice. Each view must also be capped at its own length, so an
// append can never spill into its neighbour.
func TestLayoutCarvesDisjointViews(t *testing.T) {
	for _, sh := range []struct {
		n, k, m    int
		track, adv bool
	}{
		{1, 1, 1, false, false},
		{6, 3, 6, true, false},
		{7, 4, 7, false, true},
		{70, 65, 140, true, true},
		{4100, 100, 8200, true, true},
	} {
		var s engineState
		s.layout(sh.n, sh.k, sh.m, sh.track, sh.adv)
		arenas := map[reflect.Type]reflect.Value{
			reflect.TypeFor[[]int32]():  reflect.ValueOf(s.i32),
			reflect.TypeFor[[]uint64](): reflect.ValueOf(s.u64),
		}
		views := stateSlices(&s)
		delete(views, "i32")
		delete(views, "u64")
		next, carved := 0, 0
		for _, x := range views {
			if _, ok := arenas[x.Type()]; !ok {
				continue // a typed table with its own allocation
			}
			if x.Cap() != x.Len() {
				t.Errorf("%+v: view of %d elements has capacity %d", sh, x.Len(), x.Cap())
			}
			for j := 0; j < x.Len(); j++ {
				next++
				x.Index(j).Set(reflect.ValueOf(next).Convert(x.Type().Elem()))
			}
			carved += x.Len()
		}
		written := make(map[int64]bool)
		for _, a := range arenas {
			for j := 0; j < a.Len(); j++ {
				var w int64
				if a.Index(j).CanInt() {
					w = a.Index(j).Int()
				} else {
					w = int64(a.Index(j).Uint())
				}
				if w == 0 || written[w] {
					t.Fatalf("%+v: arena slot %d of %v holds %d: written by no view or by two", sh, j, a.Type(), w)
				}
				written[w] = true
			}
		}
		if total := len(s.i32) + len(s.u64); carved != total || next != total {
			t.Fatalf("%+v: views hold %d elements, arenas %d", sh, carved, total)
		}
	}
}
