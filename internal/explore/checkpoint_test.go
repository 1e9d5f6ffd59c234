package explore

import (
	"context"
	"slices"
	"testing"

	"agentring/internal/core"
	"agentring/internal/reference"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

// crosscheckTimelines are the fault shapes the checkpoint search is
// refereed on: no faults, an eventually-repaired link, a permanent cut
// (which defeats the algorithms — the grid's guaranteed
// counterexamples), and link churn across several boundaries.
func crosscheckTimelines() map[string]sim.FaultSchedule {
	return map[string]sim.FaultSchedule{
		"static": nil,
		"transient": {
			{Step: 1, From: 2, Port: 0, Up: false},
			{Step: 12, From: 2, Port: 0, Up: true},
		},
		"permanent": {
			{Step: 1, From: 2, Port: 0, Up: false},
		},
		"churn": {
			{Step: 2, From: 1, Port: 0, Up: false},
			{Step: 5, From: 1, Port: 0, Up: true},
			{Step: 9, From: 3, Port: 0, Up: false},
			{Step: 14, From: 3, Port: 0, Up: true},
		},
	}
}

// refFactory hands every engine k agents running body, the
// paper-shaped reference form of an algorithm, on internal/reference's
// coroutine adapter (stopped when t ends).
func refFactory(t testing.TB, k int, body reference.Func) Factory {
	return func() ([]sim.Program, error) {
		ps := make([]sim.Program, k)
		for i := range ps {
			ps[i] = reference.Program(t, body)
		}
		return ps, nil
	}
}

// replayFromRoot runs the decision prefix from the initial
// configuration on a fresh engine whose agents are ref's reference
// programs (not the frames setup.Programs builds), and returns the
// scheduler — whose Record holds the enabled set at each decision — the
// run's outcome, and the Snapshot().Key() of the state it reached.
func replayFromRoot(t *testing.T, setup Setup, ref Factory, prefix []int) (*sim.Controlled, sim.Result, uint64, error) {
	t.Helper()
	programs, err := ref()
	if err != nil {
		t.Fatal(err)
	}
	topology := setup.Topology
	if topology == nil {
		topology = ring.MustNew(setup.N)
	}
	ctrl := sim.NewControlled(prefix)
	eng, err := sim.NewEngine(topology, setup.Homes, programs, sim.Options{
		Scheduler:  ctrl,
		Faults:     setup.Faults,
		Adversary:  setup.Adversary,
		TrackState: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	return ctrl, res, eng.Snapshot().Key(), err
}

// refereeReport is what the from-root referee measures of a schedule
// space.
type refereeReport struct {
	states, distinctTerminals int
	violation                 bool
}

// fromRootReferee searches the setup's schedule space the slow, obvious
// way, as the independent referee for the explorer: a depth-first
// search in decision-index order that reaches every state by replaying
// its whole prefix from the initial configuration on ref's reference
// programs (replayFromRoot), and
// identifies states by Snapshot().Key() — plus the depth under fixed
// faults, whose pending suffix depends on it. It has no checkpoints, no
// cache subsumption and no sleep sets. Terminals are judged by the
// paper's predicate (empty links, uniform positions), and like the
// explorer it stops at the first violation.
func fromRootReferee(t *testing.T, setup Setup, ref Factory) refereeReport {
	t.Helper()
	type stateID struct {
		key   uint64
		depth int
	}
	n := setup.N
	if setup.Topology != nil {
		n = setup.Topology.Size()
	}
	seen := make(map[stateID]bool)
	var rep refereeReport
	var visit func(prefix []int) bool // false stops the search
	visit = func(prefix []int) bool {
		ctrl, res, key, err := replayFromRoot(t, setup, ref, prefix)
		if err != nil {
			// A program failure or step-limit overrun defeats the schedule.
			rep.violation = true
			return false
		}
		id := stateID{key: key}
		if len(setup.Faults) > 0 {
			id.depth = len(prefix)
		}
		if seen[id] {
			return true
		}
		seen[id] = true
		rep.states++
		if res.Quiesced {
			rep.distinctTerminals++
			if !res.QueuesEmpty || !verify.IsUniform(n, res.Positions()) {
				rep.violation = true
				return false
			}
			return true
		}
		for i := range ctrl.Record[len(prefix)] {
			if !visit(append(slices.Clip(prefix), i)) {
				return false
			}
		}
		return true
	}
	visit(nil)
	return rep
}

// checkAgainstReferee fails the test unless the explorer's report
// agrees with the referee's on the state count, the distinct terminal
// count and the verdict.
func checkAgainstReferee(t *testing.T, label string, got Report, ref refereeReport) {
	t.Helper()
	if got.States != ref.states || got.DistinctTerminals != ref.distinctTerminals ||
		(got.Counterexample != nil) != ref.violation {
		t.Errorf("%s disagrees with the from-root referee: states %d vs %d, distinct terminals %d vs %d, violation %v vs %v",
			label, got.States, ref.states, got.DistinctTerminals, ref.distinctTerminals,
			got.Counterexample != nil, ref.violation)
	}
}

// TestCheckpointReplayCrossCheck is the search-level soundness gate for
// the checkpoint/restore core: for every algorithm × fault-timeline
// cell, the explorer must agree with the from-root referee on the
// reachable state count, the distinct terminal count and the verdict.
// The referee shares no search machinery with the
// explorer and runs each algorithm's paper-shaped reference
// (internal/reference), so the grid also holds every frame to it. Every grid algorithm runs as a
// checkpointable frame, including the message-driven alg2 (leaders
// wake suspended followers) and relaxed (suspended agents restart on a
// correction).
func TestCheckpointReplayCrossCheck(t *testing.T) {
	algs := map[string]struct {
		frames Factory
		ref    reference.Func
	}{
		"alg1":    {alg1Factory(2), reference.Alg1(core.KnowAgents, 2)},
		"naive":   {naiveFactory(2), reference.Naive()},
		"alg2":    {alg2Factory(2), reference.Alg2(2, nil)},
		"relaxed": {relaxedFactory(2), reference.Relaxed()},
	}
	sawCex := false
	for algName, alg := range algs {
		for tlName, faults := range crosscheckTimelines() {
			t.Run(algName+"/"+tlName, func(t *testing.T) {
				setup := Setup{N: 4, Homes: []int{0, 1}, Programs: alg.frames, Faults: faults}
				ref := fromRootReferee(t, setup, refFactory(t, 2, alg.ref))
				rep, err := Explore(context.Background(), setup, Options{})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReferee(t, "search", rep, ref)
				if rep.Complete != !ref.violation {
					t.Errorf("completeness: search %v, referee violation %v", rep.Complete, ref.violation)
				}
				if rep.Counterexample != nil {
					sawCex = true
				}
			})
		}
	}
	if !sawCex {
		t.Error("no grid cell produced a counterexample; the verdict check ran vacuously")
	}
}

// TestCheckpointReplayCrossCheckPumped covers the remaining verdict
// shape — a property violation on a fault-free substrate (the pumped
// ring defeats the naive estimator): the counterexample's prefix,
// replayed from the initial configuration, must end in the reported
// failing terminal.
func TestCheckpointReplayCrossCheckPumped(t *testing.T) {
	n, homes, err := workload.Pumped(1, []int{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes))}
	rep, err := Explore(context.Background(), setup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatal("no counterexample on the pumped ring")
	}
	ctrl, res, _, err := replayFromRoot(t, setup, refFactory(t, len(homes), reference.Naive()), cex.Prefix)
	if err != nil {
		t.Fatalf("replaying the counterexample: %v", err)
	}
	if !res.Quiesced || !slices.Equal(res.Positions(), cex.Positions) {
		t.Errorf("prefix replays to quiesced=%v positions %v, counterexample says %v",
			res.Quiesced, res.Positions(), cex.Positions)
	}
	for i, pick := range cex.Prefix {
		if got := ctrl.Record[i][pick]; got != cex.Schedule[i] {
			t.Fatalf("decision %d replays as %+v, counterexample says %+v", i, got, cex.Schedule[i])
		}
	}
}
