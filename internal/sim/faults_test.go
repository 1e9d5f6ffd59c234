package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"agentring/internal/ring"
)

// TestFaultScheduleValidation rejects malformed events at construction.
func TestFaultScheduleValidation(t *testing.T) {
	r := ring.MustNew(4)
	cases := []struct {
		name string
		ev   FaultEvent
	}{
		{"negative step", FaultEvent{Step: -1, From: 0, Port: 0}},
		{"node out of range", FaultEvent{Step: 0, From: 4, Port: 0}},
		{"negative node", FaultEvent{Step: 0, From: -1, Port: 0}},
		{"port out of range", FaultEvent{Step: 0, From: 0, Port: 1}},
		{"negative port", FaultEvent{Step: 0, From: 0, Port: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEngine(r, []ring.NodeID{0}, []Program{walker(1)}, Options{
				Faults: FaultSchedule{tc.ev},
			})
			if !errors.Is(err, ErrBadSetup) {
				t.Fatalf("err = %v, want ErrBadSetup", err)
			}
		})
	}
}

// TestSetEdgeStateValidation rejects out-of-range mutations at runtime.
func TestSetEdgeStateValidation(t *testing.T) {
	e, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{walker(1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetEdgeState(4, 0, false); !errors.Is(err, ErrBadSetup) {
		t.Errorf("bad node: err = %v, want ErrBadSetup", err)
	}
	if err := e.SetEdgeState(0, 2, false); !errors.Is(err, ErrBadSetup) {
		t.Errorf("bad port: err = %v, want ErrBadSetup", err)
	}
	if _, err := e.EdgeUp(9, 0); !errors.Is(err, ErrBadSetup) {
		t.Errorf("EdgeUp bad node: err = %v, want ErrBadSetup", err)
	}
}

// TestFailedLinkFreezesAgent pins the core frozen-FIFO semantics: an
// agent in transit on a failed link neither arrives nor is lost, and
// resumes in order after the repair. The run must end exactly as the
// fault-free run does.
func TestFailedLinkFreezesAgent(t *testing.T) {
	const n = 6
	homes := []ring.NodeID{0, 3}
	mk := func() []Program { return []Program{walker(6), walker(6)} }

	run := func(faults FaultSchedule) Result {
		t.Helper()
		e, err := NewEngine(ring.MustNew(n), homes, mk(), Options{Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(nil)
	// Fail the edge 2 -> 3 for a long stretch of the walk, then repair.
	got := run(FaultSchedule{
		{Step: 1, From: 2, Port: 0, Up: false},
		{Step: 40, From: 2, Port: 0, Up: true},
	})
	if !slices.Equal(got.Positions(), want.Positions()) {
		t.Errorf("positions with transient fault = %v, want %v", got.Positions(), want.Positions())
	}
	if got.TotalMoves != want.TotalMoves {
		t.Errorf("total moves = %d, want %d", got.TotalMoves, want.TotalMoves)
	}
	if !got.Quiesced || !got.QueuesEmpty {
		t.Errorf("quiesced=%v queuesEmpty=%v, want true/true", got.Quiesced, got.QueuesEmpty)
	}
	if got.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", got.Epoch)
	}
}

// TestPermanentFailureFreezesForever: with the cut never repaired, the
// run quiesces with the walker frozen in transit, and the queue
// contents are reported intact.
func TestPermanentFailureFreezesForever(t *testing.T) {
	const n = 4
	e, err := NewEngine(ring.MustNew(n), []ring.NodeID{0}, []Program{walker(4)}, Options{
		Faults: FaultSchedule{{Step: 0, From: 2, Port: 0, Up: false}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Fatal("run did not quiesce")
	}
	if res.QueuesEmpty {
		t.Fatal("queues reported empty with a frozen agent")
	}
	if res.Agents[0].Status != StatusInTransit {
		t.Fatalf("agent status = %v, want in-transit", res.Agents[0].Status)
	}
	// The agent made it to node 2 and is frozen on the 2 -> 3 edge.
	if res.Agents[0].Moves != 3 {
		t.Errorf("moves = %d, want 3 (0->1, 1->2, frozen push onto 2->3)", res.Agents[0].Moves)
	}
	cfg := e.Snapshot()
	if want := []int{3}; !slices.Equal(cfg.DownEdges, want) {
		t.Errorf("DownEdges = %v, want %v (rank of edge toward node 3)", cfg.DownEdges, want)
	}
	if q := cfg.EdgeQueues[3]; !slices.Equal(q, []int{0}) {
		t.Errorf("frozen queue = %v, want [0]", q)
	}
}

// TestFastForwardAppliesPendingRepairs: when every enabled action sits
// on failed links, time still passes and a far-future repair fires,
// unfreezing the system. Without the fast-forward this run would
// quiesce early (the repair step is far beyond the reachable count).
func TestFastForwardAppliesPendingRepairs(t *testing.T) {
	const n = 4
	e, err := NewEngine(ring.MustNew(n), []ring.NodeID{0}, []Program{walker(4)}, Options{
		Faults: FaultSchedule{
			{Step: 0, From: 2, Port: 0, Up: false},
			{Step: 1 << 20, From: 2, Port: 0, Up: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced || !res.QueuesEmpty {
		t.Fatalf("quiesced=%v queuesEmpty=%v, want true/true", res.Quiesced, res.QueuesEmpty)
	}
	if res.Agents[0].Moves != 4 {
		t.Errorf("moves = %d, want the full 4-step walk", res.Agents[0].Moves)
	}
	if res.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", res.Epoch)
	}
}

// TestNoOpMutationsAreInvisible: repairing an up link (or re-failing a
// down one) changes nothing — no epoch advance, no trace event — so an
// all-links-up schedule reproduces the static run byte-identically.
func TestNoOpMutationsAreInvisible(t *testing.T) {
	const n = 6
	homes := []ring.NodeID{0, 3}
	run := func(faults FaultSchedule) (Result, string) {
		t.Helper()
		tr := NewTrace(1 << 16)
		e, err := NewEngine(ring.MustNew(n), homes, []Program{walker(6), walker(6)}, Options{
			Faults: faults, Sink: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.String()
	}
	wantRes, wantTrace := run(nil)
	allUp := FaultSchedule{
		{Step: 0, From: 0, Port: 0, Up: true},
		{Step: 3, From: 4, Port: 0, Up: true},
		{Step: 7, From: 2, Port: 0, Up: true},
	}
	gotRes, gotTrace := run(allUp)
	if gotTrace != wantTrace {
		t.Errorf("all-links-up trace differs from static trace")
	}
	if gotRes.Epoch != 0 {
		t.Errorf("epoch = %d, want 0 (all events are no-ops)", gotRes.Epoch)
	}
	if !slices.Equal(gotRes.Positions(), wantRes.Positions()) {
		t.Errorf("positions = %v, want %v", gotRes.Positions(), wantRes.Positions())
	}
}

// TestLinkEventsTraced: effective mutations appear in the trace as
// link-down / link-up events carrying agent -1 and the edge's tail.
func TestLinkEventsTraced(t *testing.T) {
	tr := NewTrace(1 << 16)
	e, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{walker(4)}, Options{
		Faults: FaultSchedule{
			{Step: 1, From: 2, Port: 0, Up: false},
			{Step: 2, From: 2, Port: 0, Up: true},
		},
		Sink: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var down, up int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case "link-down":
			down++
			if ev.Agent != -1 || ev.Node != 2 || ev.Detail != "port 0" {
				t.Errorf("link-down event = %+v, want agent -1 at node 2 port 0", ev)
			}
		case "link-up":
			up++
		}
	}
	if down != 1 || up != 1 {
		t.Errorf("traced %d link-down and %d link-up events, want 1 and 1", down, up)
	}
	if !strings.Contains(tr.String(), "link-down port 0") {
		t.Errorf("rendered trace missing link-down event:\n%s", tr.String())
	}
}

// TestDownEdgesChangeConfigurationKey: the same visible configuration
// with a failed link must hash differently — the down set determines
// future behaviour, and the explorer's state cache relies on the
// distinction. All-up configurations keep their static keys.
func TestDownEdgesChangeConfigurationKey(t *testing.T) {
	mk := func() *Engine {
		e, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{walker(2)}, Options{TrackState: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	static := mk()
	keyUp := static.Snapshot().Key()

	dyn := mk()
	if err := dyn.SetEdgeState(2, 0, false); err != nil {
		t.Fatal(err)
	}
	keyDown := dyn.Snapshot().Key()
	if keyDown == keyUp {
		t.Error("down-link configuration hashes equal to all-up configuration")
	}
	if err := dyn.SetEdgeState(2, 0, true); err != nil {
		t.Fatal(err)
	}
	if got := dyn.Snapshot().Key(); got != keyUp {
		t.Error("repaired configuration does not hash back to the all-up key")
	}
	if dyn.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", dyn.Epoch())
	}
	if up, err := dyn.EdgeUp(2, 0); err != nil || !up {
		t.Errorf("EdgeUp(2,0) = %v, %v, want true, nil", up, err)
	}
}

// TestAuditorAcceptsFaultyRun wires the invariant auditor into a run
// with a transient failure: freezing and thawing a queue must not
// violate any model invariant.
func TestAuditorAcceptsFaultyRun(t *testing.T) {
	aud := NewAuditor()
	e, err := NewEngine(ring.MustNew(6), []ring.NodeID{0, 3}, []Program{walker(6), walker(6)}, Options{
		Faults: FaultSchedule{
			{Step: 2, From: 4, Port: 0, Up: false},
			{Step: 30, From: 4, Port: 0, Up: true},
		},
		Observer: aud.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditorCatchesFrozenQueuePop: hand-built snapshots where a down
// edge's queue pops its head must fail the frozen-queue invariant.
func TestAuditorCatchesFrozenQueuePop(t *testing.T) {
	base := Configuration{
		Statuses:     []Status{StatusInTransit, StatusInTransit},
		Tokens:       []int{0, 0, 0},
		MailboxSizes: []int{0, 0},
		Staying:      [][]int{nil, nil, nil},
		InTransit:    [][]int{nil, {0, 1}, nil},
		EdgeQueues:   [][]int{nil, {0, 1}, nil},
		Moves:        []int{1, 1},
		DownEdges:    []int{1},
	}
	next := Configuration{
		Step:         1,
		Statuses:     []Status{StatusWaiting, StatusInTransit},
		Tokens:       []int{0, 0, 0},
		MailboxSizes: []int{0, 0},
		Staying:      [][]int{nil, {0}, nil},
		InTransit:    [][]int{nil, {1}, nil},
		EdgeQueues:   [][]int{nil, {1}, nil},
		Moves:        []int{1, 1},
		DownEdges:    []int{1},
	}
	aud := NewAuditor()
	aud.Observe(base)
	aud.Observe(next)
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "frozen queue") {
		t.Fatalf("err = %v, want frozen-queue violation", err)
	}
}
