package agentring_test

import (
	"fmt"
	"reflect"
	"testing"

	"agentring/internal/baseline"
	"agentring/internal/core"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/topo"
)

// The frame-vs-coroutine cross-check: every algorithm whose program
// implements sim.Framer executes by default as a resumable frame, while
// coroutineOnly runs the same program's coroutine Run. The
// two paths promise observational equivalence (see sim.Frame); this
// test holds them to it on the golden configuration across all
// schedulers, comparing the full rendered trace, the canonical
// configuration hash (with per-agent state tracking on), final
// positions, and per-agent reports including metered peak memory.
// Together with TestGoldenDeterminism — which pins the
// default path against recorded traces — this keeps both execution
// forms byte-identical to the pre-frame engine.

// crosscheckConfig is the golden configuration of TestGoldenDeterminism.
const crosscheckN = 36

var crosscheckHomes = []ring.NodeID{0, 3, 4, 11, 17, 25}

// coroutineOnly hides each program's Frame method, so the engine runs
// its coroutine Run, the reference semantics frames are checked against.
func coroutineOnly(programs []sim.Program) []sim.Program {
	for i, p := range programs {
		programs[i] = sim.ProgramFunc(p.Run)
	}
	return programs
}

// crosscheckPrograms builds one fresh program per agent, mirroring the
// facade's per-algorithm construction.
func crosscheckPrograms(t *testing.T, alg string, n, k int) []sim.Program {
	t.Helper()
	mk := func() (sim.Program, error) {
		switch alg {
		case "native":
			return core.NewAlg1(core.KnowAgents, k)
		case "nativeKnowN":
			return core.NewAlg1(core.KnowNodes, n)
		case "logspace":
			return core.NewAlg2(k)
		case "relaxed":
			return core.NewRelaxed(), nil
		case "naive":
			return core.NewNaiveEstimator(), nil
		case "firstfit":
			return baseline.NewFirstFit(n, k)
		case "binative":
			return core.NewBiNative(k)
		default:
			return nil, fmt.Errorf("unknown algorithm %q", alg)
		}
	}
	programs := make([]sim.Program, k)
	for i := range programs {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		programs[i] = p
	}
	return programs
}

func crosscheckScheduler(t *testing.T, kind string) sim.Scheduler {
	t.Helper()
	switch kind {
	case "roundrobin":
		return sim.NewRoundRobin()
	case "random":
		return sim.NewRandom(7)
	case "synchronous":
		return sim.NewSynchronous()
	case "adversarial":
		return sim.NewAdversarial(sim.DefaultAdversaryBound)
	default:
		t.Fatalf("unknown scheduler %q", kind)
		return nil
	}
}

// runBoth executes the same (topology, programs, scheduler, faults)
// setup twice — frames on, frames forced off — and asserts identical
// observable behaviour, and that each engine's incrementally maintained
// StateKey equals its final snapshot's Key.
func runBoth(t *testing.T, top sim.Topology, alg, sched string, faults sim.FaultSchedule) {
	t.Helper()
	n := top.Size()
	k := len(crosscheckHomes)
	type outcome struct {
		trace     string
		key       uint64
		hashes    []uint64
		positions []ring.NodeID
		agents    []sim.AgentReport
		sent      int
		steps     int
		err       error
	}
	exec := func(coroutines bool) outcome {
		trace := sim.NewTrace(1 << 20)
		programs := crosscheckPrograms(t, alg, n, k)
		if coroutines {
			programs = coroutineOnly(programs)
		}
		e, err := sim.NewEngine(top, crosscheckHomes, programs, sim.Options{
			Scheduler:  crosscheckScheduler(t, sched),
			Sink:       trace,
			TrackState: true,
			Faults:     faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		snap := e.Snapshot()
		if got, want := e.StateKey(), snap.Key(); got != want {
			t.Errorf("coroutines %v: final StateKey %#x, Snapshot().Key %#x", coroutines, got, want)
		}
		return outcome{
			trace:     trace.String(),
			key:       snap.Key(),
			hashes:    snap.AgentHashes,
			positions: res.Positions(),
			agents:    res.Agents,
			sent:      res.MessagesSent,
			steps:     res.Steps,
			err:       err,
		}
	}
	frame, coro := exec(false), exec(true)
	if (frame.err == nil) != (coro.err == nil) {
		t.Fatalf("run errors diverge: frame=%v coroutine=%v", frame.err, coro.err)
	}
	if frame.err != nil && frame.err.Error() != coro.err.Error() {
		t.Fatalf("error texts diverge:\nframe:     %v\ncoroutine: %v", frame.err, coro.err)
	}
	if frame.trace != coro.trace {
		t.Errorf("traces diverge (frame %d bytes, coroutine %d bytes)", len(frame.trace), len(coro.trace))
	}
	if frame.key != coro.key {
		t.Errorf("configuration keys diverge: frame %#x, coroutine %#x", frame.key, coro.key)
	}
	if !reflect.DeepEqual(frame.hashes, coro.hashes) {
		t.Errorf("agent state hashes diverge:\nframe:     %#x\ncoroutine: %#x", frame.hashes, coro.hashes)
	}
	if !reflect.DeepEqual(frame.positions, coro.positions) {
		t.Errorf("positions diverge: frame %v, coroutine %v", frame.positions, coro.positions)
	}
	if frame.steps != coro.steps {
		t.Errorf("steps diverge: frame %d, coroutine %d", frame.steps, coro.steps)
	}
	// Per-agent moves, statuses and metered peak memory, and the message
	// count: a frame must meter and broadcast where Run does.
	if !reflect.DeepEqual(frame.agents, coro.agents) || frame.sent != coro.sent {
		t.Errorf("agent reports diverge:\nframe:     %+v (%d sent)\ncoroutine: %+v (%d sent)",
			frame.agents, frame.sent, coro.agents, coro.sent)
	}
}

func TestFrameCoroutineCrossCheck(t *testing.T) {
	algs := []string{"native", "nativeKnowN", "logspace", "relaxed", "naive", "firstfit"}
	scheds := []string{"roundrobin", "random", "synchronous", "adversarial"}
	for _, alg := range algs {
		for _, sched := range scheds {
			t.Run(alg+"/"+sched, func(t *testing.T) {
				runBoth(t, ring.MustNew(crosscheckN), alg, sched, nil)
			})
		}
	}
}

// TestFrameCoroutineCrossCheckBiRing covers the multi-port frame
// (binative's backward deployment) on the bidirectional ring.
func TestFrameCoroutineCrossCheckBiRing(t *testing.T) {
	bi, err := topo.NewBiRing(crosscheckN)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{"roundrobin", "random", "synchronous", "adversarial"} {
		t.Run("binative/"+sched, func(t *testing.T) {
			runBoth(t, bi, "binative", sched, nil)
		})
	}
}

// TestFrameCoroutineCrossCheckFaults replays the fault-golden shapes —
// a no-op all-up schedule and a real fail/repair pair — through both
// execution forms.
func TestFrameCoroutineCrossCheckFaults(t *testing.T) {
	schedules := map[string]sim.FaultSchedule{
		"allup": {
			{Step: 0, From: 0, Port: 0, Up: true},
			{Step: 7, From: 9, Port: 0, Up: true},
			{Step: 100, From: 20, Port: 0, Up: true},
			{Step: 1 << 20, From: 33, Port: 0, Up: true},
		},
		"failrepair": {
			{Step: 10, From: 18, Port: 0, Up: false},
			{Step: 90, From: 18, Port: 0, Up: true},
		},
	}
	for name, faults := range schedules {
		for _, alg := range []string{"native", "logspace", "relaxed"} {
			t.Run(name+"/"+alg, func(t *testing.T) {
				runBoth(t, ring.MustNew(crosscheckN), alg, "roundrobin", faults)
			})
		}
	}
}

// driveStepwise advances an engine through the step-driven control
// surface (the explorer's interface) with a fixed deterministic pick
// rule, optionally forcing a Checkpoint/Restore round-trip before every
// decision — with every third round-trip resuming into a brand-new
// engine built by fresh. At every decision point, the final one
// included, the engine's StateKey must equal its Snapshot().Key(), and
// exactly the agents offered a wake may hold mail: a checkpoint carries
// only those agents' mailboxes (LogSpace and Relaxed broadcast). It
// returns the engine that holds the final state.
func driveStepwise(t *testing.T, e *sim.Engine, fresh func() *sim.Engine, roundTrip bool) *sim.Engine {
	t.Helper()
	cp := &sim.Checkpoint{}
	for decision := 0; ; decision++ {
		if roundTrip {
			if err := e.CheckpointTo(cp); err != nil {
				t.Fatalf("decision %d: CheckpointTo: %v", decision, err)
			}
			if decision%3 == 2 {
				e = fresh()
			}
			if err := e.Restore(cp); err != nil {
				t.Fatalf("decision %d: Restore: %v", decision, err)
			}
		}
		cs := e.DecisionPoint()
		snap := e.Snapshot()
		if got, want := e.StateKey(), snap.Key(); got != want {
			t.Fatalf("decision %d: StateKey %#x, Snapshot().Key %#x", decision, got, want)
		}
		wake := make([]bool, len(snap.MailboxSizes))
		for _, c := range cs {
			if c.Kind == sim.ChoiceWake {
				wake[c.Agent] = true
			}
		}
		for id, mail := range snap.MailboxSizes {
			if (mail > 0) != wake[id] {
				t.Fatalf("decision %d: agent %d holds %d messages, offered a wake: %v", decision, id, mail, wake[id])
			}
		}
		if len(cs) == 0 {
			return e
		}
		if e.Steps() >= e.StepLimit() {
			t.Fatalf("step limit hit at decision %d", decision)
		}
		if err := e.ApplyChoice(cs[(decision*7+3)%len(cs)]); err != nil {
			t.Fatalf("decision %d: ApplyChoice: %v", decision, err)
		}
	}
}

// TestCheckpointRestoreCrossCheck holds the checkpoint layer to the
// frame/coroutine equivalence on the production algorithms: for every
// frame-capable algorithm on the golden configuration (plus binative on
// the bidirectional ring), a step-driven run that round-trips through
// Checkpoint/Restore at every decision — periodically abandoning the
// engine for a fresh one resumed from the checkpoint — must finish in
// exactly the configuration the uninterrupted coroutine reference
// reaches. This is the whole-algorithm version of the lockstep check in
// internal/sim (TestFrameCoroutineCheckpointCrossCheck) and the ground
// the explorer's checkpoint mode stands on.
func TestCheckpointRestoreCrossCheck(t *testing.T) {
	cases := []struct {
		alg string
		top func() sim.Topology
	}{
		{"native", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"nativeKnowN", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		// Four nodes more than the golden ring: n mod k = 4, so LogSpace's
		// target-slot intervals are 7,7,7,7,6,6 and a follower's slot
		// index must survive a restore.
		{"logspace", func() sim.Topology { return ring.MustNew(crosscheckN + 4) }},
		{"relaxed", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"naive", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"firstfit", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"binative", func() sim.Topology {
			bi, err := topo.NewBiRing(crosscheckN)
			if err != nil {
				t.Fatal(err)
			}
			return bi
		}},
	}
	faults := sim.FaultSchedule{
		{Step: 10, From: 18, Port: 0, Up: false},
		{Step: 90, From: 18, Port: 0, Up: true},
	}
	for _, tc := range cases {
		t.Run(tc.alg, func(t *testing.T) {
			top := tc.top()
			n, k := top.Size(), len(crosscheckHomes)
			mk := func(coroutines bool) *sim.Engine {
				programs := crosscheckPrograms(t, tc.alg, n, k)
				if coroutines {
					programs = coroutineOnly(programs)
				}
				e, err := sim.NewEngine(top, crosscheckHomes, programs, sim.Options{
					TrackState: true,
					Faults:     faults,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			cpd := mk(false)
			if !cpd.Checkpointable() {
				t.Fatalf("%s frames do not checkpoint", tc.alg)
			}
			ref := driveStepwise(t, mk(true), nil, false)
			cpd = driveStepwise(t, cpd, func() *sim.Engine { return mk(false) }, true)

			refSnap, cpdSnap := ref.Snapshot(), cpd.Snapshot()
			if refSnap.Key() != cpdSnap.Key() {
				t.Errorf("configuration keys diverge: checkpointed %#x, coroutine %#x", cpdSnap.Key(), refSnap.Key())
			}
			if !reflect.DeepEqual(refSnap.AgentHashes, cpdSnap.AgentHashes) {
				t.Errorf("agent hashes diverge:\ncheckpointed: %#x\ncoroutine:    %#x", cpdSnap.AgentHashes, refSnap.AgentHashes)
			}
			refRes, cpdRes := ref.ResultNow(), cpd.ResultNow()
			if !reflect.DeepEqual(refRes.Positions(), cpdRes.Positions()) {
				t.Errorf("positions diverge: checkpointed %v, coroutine %v", cpdRes.Positions(), refRes.Positions())
			}
			if refRes.Steps != cpdRes.Steps || refRes.TotalMoves != cpdRes.TotalMoves {
				t.Errorf("steps/moves diverge: checkpointed %d/%d, coroutine %d/%d",
					cpdRes.Steps, cpdRes.TotalMoves, refRes.Steps, refRes.TotalMoves)
			}
		})
	}
}
