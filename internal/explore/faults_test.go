package explore

import (
	"context"
	"slices"
	"strings"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
)

// TestExploreTransientFaultNativeDeploys: Algorithm 1 still deploys
// uniformly under an eventually-repaired single-link failure, checked
// over the *complete* schedule space of a small ring placement. The
// repair lands late (step 12) so schedules exist where agents pile up
// frozen behind the cut.
func TestExploreTransientFaultNativeDeploys(t *testing.T) {
	rep, err := Explore(context.Background(), Setup{
		N:        4,
		Homes:    []int{0, 1},
		Programs: alg1Factory(2),
		Faults: sim.FaultSchedule{
			{Step: 1, From: 2, Port: 0, Up: false},
			{Step: 12, From: 2, Port: 0, Up: true},
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counterexample != nil {
		t.Fatalf("counterexample under eventually-repaired fault:\n%s", rep.Counterexample)
	}
	if !rep.Complete {
		t.Fatalf("search incomplete: %+v", rep)
	}
	// The depth-stratified reduction runs under faults; its soundness on
	// this exact setup is cross-checked by TestFaultReductionConsistency.
	if rep.SleepSkips == 0 {
		t.Logf("note: stratified reduction found nothing to skip here (%+v)", rep)
	}
}

// TestFaultReductionConsistency cross-checks the depth-stratified
// reduction: under a fault timeline, the reduced and reduction-free
// searches must cover identical reachable state sets and agree on the
// verdict. (PR 5 had to force the reduction off under faults; the
// stratified form re-enables it away from the depths where a mutation
// fires.)
func TestFaultReductionConsistency(t *testing.T) {
	schedules := []sim.FaultSchedule{
		{
			{Step: 1, From: 2, Port: 0, Up: false},
			{Step: 12, From: 2, Port: 0, Up: true},
		},
		{
			{Step: 1, From: 2, Port: 0, Up: false},
		},
		{
			{Step: 2, From: 1, Port: 0, Up: false},
			{Step: 5, From: 1, Port: 0, Up: true},
			{Step: 9, From: 3, Port: 0, Up: false},
			{Step: 14, From: 3, Port: 0, Up: true},
		},
	}
	for i, faults := range schedules {
		setup := Setup{
			N:        4,
			Homes:    []int{0, 1},
			Programs: alg1Factory(2),
			Faults:   faults,
		}
		reduced, err := Explore(context.Background(), setup, Options{})
		if err != nil {
			t.Fatal(err)
		}
		free, err := Explore(context.Background(), setup, Options{DisableReduction: true})
		if err != nil {
			t.Fatal(err)
		}
		if reduced.States != free.States {
			t.Errorf("schedule %d: reduced search covers %d states, reduction-free %d",
				i, reduced.States, free.States)
		}
		if reduced.DistinctTerminals != free.DistinctTerminals {
			t.Errorf("schedule %d: distinct terminals %d (reduced) vs %d (free)",
				i, reduced.DistinctTerminals, free.DistinctTerminals)
		}
		if (reduced.Counterexample == nil) != (free.Counterexample == nil) {
			t.Errorf("schedule %d: verdicts disagree: reduced cex=%v free cex=%v",
				i, reduced.Counterexample, free.Counterexample)
		}
		if reduced.Replays > free.Replays {
			t.Errorf("schedule %d: reduction did more work than reduction-free (%d > %d replays)",
				i, reduced.Replays, free.Replays)
		}
	}
}

// TestExplorePermanentFaultCounterexampleReplays: when the link never
// recovers, the explorer reports a frozen-agent terminal — and the
// counterexample must be *replayable*: driving a fresh engine through
// the recorded decision prefix under the same fault schedule reaches
// exactly the reported failing state.
func TestExplorePermanentFaultCounterexampleReplays(t *testing.T) {
	faults := sim.FaultSchedule{{Step: 1, From: 2, Port: 0, Up: false}}
	setup := Setup{
		N:        4,
		Homes:    []int{0, 1},
		Programs: alg1Factory(2),
		Faults:   faults,
	}
	rep, err := Explore(context.Background(), setup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatal("no counterexample with a permanently failed link")
	}
	if !strings.Contains(cex.Reason, "frozen in transit") {
		t.Fatalf("reason = %q, want a frozen-in-transit violation", cex.Reason)
	}
	if len(cex.Prefix) != len(cex.Schedule) {
		t.Fatalf("prefix/schedule length mismatch: %d vs %d", len(cex.Prefix), len(cex.Schedule))
	}

	// Replay the decision prefix on a fresh engine.
	programs, err := setup.Programs()
	if err != nil {
		t.Fatal(err)
	}
	ctrl := sim.NewControlled(cex.Prefix)
	eng, err := sim.NewEngine(ring.MustNew(4), setup.Homes, programs, sim.Options{
		Scheduler: ctrl,
		Faults:    faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Fatal("replayed prefix did not quiesce")
	}
	if res.QueuesEmpty {
		t.Fatal("replayed terminal has empty queues; expected a frozen agent")
	}
	if got := res.Positions(); !slices.Equal(got, cex.Positions) {
		t.Fatalf("replayed positions = %v, counterexample says %v", got, cex.Positions)
	}
	// The recorded schedule must match what the replay actually chose.
	for i, pick := range cex.Prefix {
		if got := ctrl.Record[i][pick]; got != cex.Schedule[i] {
			t.Fatalf("decision %d replayed as %+v, recorded %+v", i, got, cex.Schedule[i])
		}
	}
}

// TestExploreFaultSearchShape pins the deterministic shape of a fault
// search: two sequential runs must agree exactly, and the statistics
// are pinned as golden values so any change to the fault search's
// caching or replay behaviour surfaces here before it can silently
// alter coverage.
//
// The fault search caches on the plain state key: with TrackState on,
// equal keys have equal depth (doc.go, "One key, one depth"), so the
// states the cache merges share their pending fault suffix, and the
// from-root referee below fails on any key it reaches at two depths.
// The golden values pin the depth-stratified sleep-set reduction:
// SleepSkips is nonzero because the reduction runs under faults,
// suspended only across the depths where a fault event fires
// (soundness cross-checked by TestFaultReductionConsistency). They pin
// the cache's revisit rule as
// well: the search revisits one state (via decisions 1 1 0) whose first
// visit slept agent 0, and the revisit pushes only agent 0's action,
// because the first visit already explored agent 1's. Re-pushing that
// one would cost a branch captured at the revisit, its restore and one
// applied step, ending in a pruned state, so Pruned, Replays and
// StepsReplayed count exactly the work the revisit rule leaves. Every
// expansion but the root's applies exactly one action, so
// StepsReplayed is Replays - 1.
func TestExploreFaultSearchShape(t *testing.T) {
	// Two independent walkers; the 1 -> 2 edge is down only for a
	// window in the middle of the run.
	ws := []walker{{route: []int{0, 0}}, {route: []int{0, 0}}}
	setup := Setup{
		N:        6,
		Homes:    []int{0, 3},
		Programs: walkers(ws...),
		Faults: sim.FaultSchedule{
			{Step: 2, From: 1, Port: 0, Up: false},
			{Step: 5, From: 1, Port: 0, Up: true},
		},
		// The walkers' final placement {2, 5} happens to be uniform, but
		// this test is about search shape, not deployment: accept any
		// terminal with empty queues (the repair guarantees thawing).
		Property: func(res sim.Result) string {
			if !res.QueuesEmpty {
				return "agents frozen despite repair"
			}
			return ""
		},
	}
	first, err := Explore(context.Background(), setup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Explore(context.Background(), setup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("fault search not deterministic:\n%+v\nvs\n%+v", first, second)
	}
	if first.Counterexample != nil {
		t.Fatalf("transient fault reported a counterexample:\n%s", first.Counterexample)
	}
	want := Report{
		Stats: Stats{
			States:            13,
			Pruned:            2,
			SleepSkips:        4,
			Replays:           16,
			StepsReplayed:     15,
			Terminals:         1,
			DistinctTerminals: 1,
			Deepest:           6,
		},
		Complete: true,
	}
	if first != want {
		t.Fatalf("fault search shape drifted:\ngot  %+v\nwant %+v", first, want)
	}
	// The walkers' frames answer to their reference bodies: the from-root
	// referee replays those and must find the same space.
	checkAgainstReferee(t, "fault search", first, fromRootReferee(t, setup, walkerRefs(t, ws...)))
}
