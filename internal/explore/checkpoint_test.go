package explore

import (
	"context"
	"slices"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/workload"
)

// crosscheckTimelines are the fault shapes the checkpoint/replay
// equivalence is sworn on: no faults, an eventually-repaired link, a
// permanent cut (which defeats the algorithms — the grid's guaranteed
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

// TestCheckpointReplayCrossCheck is the search-level soundness gate for
// the checkpoint/restore core: for every algorithm × fault-timeline
// cell, a full search in checkpoint mode must be indistinguishable from
// the pure replay-from-root search — identical coverage statistics,
// identical verdicts, byte-identical counterexamples. At Workers=1 both
// modes are fully deterministic and visit items in the same DFS order,
// so every semantic report field must match exactly; only Replays and
// StepsReplayed may differ (they measure the cost model, which is the
// whole point of the change). Every grid algorithm runs as a
// checkpointable frame, including the message-driven alg2 (leaders
// wake suspended followers) and relaxed (suspended agents restart on a
// correction); TestCoroutineFallbackReplaysExactly covers programs the
// probe cannot checkpoint.
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
				cp, err := Explore(context.Background(), setup, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rp, err := Explore(context.Background(), setup, Options{ForceReplay: true})
				if err != nil {
					t.Fatal(err)
				}
				if cp.States != rp.States || cp.Pruned != rp.Pruned || cp.SleepSkips != rp.SleepSkips ||
					cp.Terminals != rp.Terminals || cp.DistinctTerminals != rp.DistinctTerminals ||
					cp.Truncated != rp.Truncated || cp.Deepest != rp.Deepest || cp.Complete != rp.Complete {
					t.Errorf("checkpoint and replay searches diverge:\ncheckpoint: %+v\nreplay:     %+v", cp, rp)
				}
				if got, want := cexString(cp.Counterexample), cexString(rp.Counterexample); got != want {
					t.Errorf("counterexamples differ between modes:\ncheckpoint:\n%s\nreplay:\n%s", got, want)
				}
				if cp.Counterexample != nil {
					sawCex = true
					if !slices.Equal(cp.Counterexample.Prefix, rp.Counterexample.Prefix) {
						t.Errorf("counterexample prefixes differ: %v vs %v",
							cp.Counterexample.Prefix, rp.Counterexample.Prefix)
					}
				}

				// Parallel checkpoint search: schedule-order-dependent
				// counters (Pruned, SleepSkips, Terminals) may drift with
				// worker interleaving, but coverage and the verdict may not.
				par, err := Explore(context.Background(), setup, Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				if par.States != rp.States || par.DistinctTerminals != rp.DistinctTerminals || par.Complete != rp.Complete {
					t.Errorf("parallel checkpoint search lost coverage: %+v vs sequential %+v", par, rp)
				}
				if got, want := cexString(par.Counterexample), cexString(rp.Counterexample); got != want {
					t.Errorf("parallel counterexample differs:\nworkers=4:\n%s\nworkers=1:\n%s", got, want)
				}
			})
		}
	}
	if !sawCex {
		t.Error("no grid cell produced a counterexample; the byte-identity check ran vacuously")
	}
}

// TestCheckpointReplayCrossCheckPumped covers the remaining verdict
// shape — a property violation on a fault-free substrate (the pumped
// ring defeats the naive estimator) — again demanding byte-identical
// counterexamples between modes and across worker counts.
func TestCheckpointReplayCrossCheckPumped(t *testing.T) {
	n, homes, err := workload.Pumped(1, []ring.NodeID{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes))}
	rp, err := Explore(context.Background(), setup, Options{ForceReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Counterexample == nil {
		t.Fatal("no counterexample on the pumped ring")
	}
	for _, workers := range []int{1, 4} {
		cp, err := Explore(context.Background(), setup, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cexString(cp.Counterexample), cexString(rp.Counterexample); got != want {
			t.Errorf("workers=%d: counterexample differs from replay search:\n%s\nvs\n%s", workers, got, want)
		}
	}
}
