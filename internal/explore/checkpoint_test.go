package explore

import (
	"context"
	"slices"
	"testing"

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

// cexString renders a counterexample (or its absence) to the exact
// bytes a report would show; equality of these strings is the
// "byte-identical counterexamples" contract.
func cexString(c *Counterexample) string {
	if c == nil {
		return ""
	}
	return c.String()
}

// replayFromRoot runs the decision prefix from the initial
// configuration on a fresh engine whose agents run as coroutines
// (Program.Run, not their frames), and returns the scheduler — whose
// Record holds the enabled set at each decision — the run's outcome,
// and the Snapshot().Key() of the state it reached.
func replayFromRoot(t *testing.T, setup Setup, prefix []int) (*sim.Controlled, sim.Result, uint64, error) {
	t.Helper()
	programs, err := setup.Programs()
	if err != nil {
		t.Fatal(err)
	}
	topology := setup.Topology
	if topology == nil {
		topology = ring.MustNew(setup.N)
	}
	for i, p := range programs {
		programs[i] = sim.ProgramFunc(p.Run) // hides Frame: a coroutine
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
// its whole prefix from the initial configuration (replayFromRoot), and
// identifies states by Snapshot().Key() — plus the depth under fixed
// faults, whose pending suffix depends on it. It has no checkpoints, no
// cache subsumption and no sleep sets. Terminals are judged by the
// paper's predicate (empty links, uniform positions), and like the
// explorer it stops at the first violation.
func fromRootReferee(t *testing.T, setup Setup) refereeReport {
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
		ctrl, res, key, err := replayFromRoot(t, setup, prefix)
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
// cell, the explorer at 1 and 4 workers must agree with the from-root
// referee on the reachable state count, the distinct terminal count
// and the verdict, and report byte-identical counterexamples at both
// worker counts. The referee shares no search machinery with the
// explorer and runs the programs' coroutine reference (Run), so the
// grid also holds every frame to it. Every grid algorithm runs as a
// checkpointable frame, including the message-driven alg2 (leaders
// wake suspended followers) and relaxed (suspended agents restart on a
// correction).
func TestCheckpointReplayCrossCheck(t *testing.T) {
	algs := map[string]Factory{
		"alg1":    alg1Factory(2),
		"naive":   naiveFactory(2),
		"alg2":    alg2Factory(2),
		"relaxed": relaxedFactory(2),
	}
	sawCex := false
	for algName, factory := range algs {
		for tlName, faults := range crosscheckTimelines() {
			t.Run(algName+"/"+tlName, func(t *testing.T) {
				setup := Setup{N: 4, Homes: []ring.NodeID{0, 1}, Programs: factory, Faults: faults}
				ref := fromRootReferee(t, setup)
				seq, err := Explore(context.Background(), setup, Options{})
				if err != nil {
					t.Fatal(err)
				}
				par, err := Explore(context.Background(), setup, Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReferee(t, "workers=1", seq, ref)
				checkAgainstReferee(t, "workers=4", par, ref)
				if seq.Complete != !ref.violation || par.Complete != !ref.violation {
					t.Errorf("completeness: workers=1 %v, workers=4 %v, referee violation %v",
						seq.Complete, par.Complete, ref.violation)
				}
				if got, want := cexString(par.Counterexample), cexString(seq.Counterexample); got != want {
					t.Errorf("counterexample differs across worker counts:\nworkers=4:\n%s\nworkers=1:\n%s", got, want)
				}
				if seq.Counterexample != nil {
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
// ring defeats the naive estimator): the counterexample must be
// byte-identical at 1 and 4 workers, and its prefix, replayed from the
// initial configuration, must end in the reported failing terminal.
func TestCheckpointReplayCrossCheckPumped(t *testing.T) {
	n, homes, err := workload.Pumped(1, []ring.NodeID{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes))}
	var want string
	for _, workers := range []int{1, 4} {
		rep, err := Explore(context.Background(), setup, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cex := rep.Counterexample
		if cex == nil {
			t.Fatalf("workers=%d: no counterexample on the pumped ring", workers)
		}
		if workers == 1 {
			want = cexString(cex)
		} else if got := cexString(cex); got != want {
			t.Errorf("workers=%d: counterexample differs from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
		ctrl, res, _, err := replayFromRoot(t, setup, cex.Prefix)
		if err != nil {
			t.Fatalf("workers=%d: replaying the counterexample: %v", workers, err)
		}
		if !res.Quiesced || !slices.Equal(res.Positions(), cex.Positions) {
			t.Errorf("workers=%d: prefix replays to quiesced=%v positions %v, counterexample says %v",
				workers, res.Quiesced, res.Positions(), cex.Positions)
		}
		for i, pick := range cex.Prefix {
			if got := ctrl.Record[i][pick]; got != cex.Schedule[i] {
				t.Fatalf("workers=%d: decision %d replays as %+v, counterexample says %+v", workers, i, got, cex.Schedule[i])
			}
		}
	}
}
