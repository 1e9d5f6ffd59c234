package jobs

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"agentring"
)

// bigExplore is an n=8 k=6 clustered native search: 13,152 states,
// about 20 ms on a 2-vCPU VM, long enough that a cancel or a 5 ms
// duration budget lands mid-search even when the budget's timer
// reaches the busy search several milliseconds late.
func bigExplore() Spec {
	return Spec{Kind: KindExplore, Algorithm: "native", N: 8, K: 6, Workload: "clustered"}
}

// TestCancelRunningExploreStopsMidSearch: cancelling a running explore
// job interrupts the search itself (the engine threads its context
// into agentring.Explore), not just the gaps between jobs.
func TestCancelRunningExploreStopsMidSearch(t *testing.T) {
	e := New(Options{Runners: 1})
	defer e.Close()
	snap, err := e.Submit("c1", bigExplore())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := e.Status(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFinal(t, e, snap.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled running explore ended %s: %s", final.State, final.Error)
	}
	if _, err := e.Result(snap.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("result of cancelled explore: err = %v, want ErrNotFinished", err)
	}
}

// TestExploreDurationBudgetTruncates: a max_duration_ms budget in the
// spec bounds the search's wall clock; the job still completes, with
// an honestly truncated report.
func TestExploreDurationBudgetTruncates(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	spec := bigExplore()
	spec.MaxDurationMS = 5
	snap, err := e.Submit("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFinal(t, e, snap.ID)
	if final.State != StateDone {
		t.Fatalf("budgeted explore ended %s: %s", final.State, final.Error)
	}
	res, err := e.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explore == nil {
		t.Fatal("no explore report")
	}
	if res.Explore.Complete {
		t.Error("5ms budget on an n=8 k=6 search claims complete coverage")
	}
	if res.Explore.Truncated == 0 {
		t.Error("no truncated branches in a budget-expired report")
	}
	if res.Explore.Counterexample != nil {
		t.Errorf("budget expiry produced a counterexample: %+v", res.Explore.Counterexample)
	}
}

// TestExploreWorkersSpecCoversSameSpace: a spec carrying workers is
// still accepted and echoed in its snapshot, and the search reports the
// same as without it, every field included.
func TestExploreWorkersSpecCoversSameSpace(t *testing.T) {
	e := New(Options{Runners: 2})
	defer e.Close()
	run := func(workers int) *agentring.ExploreReport {
		t.Helper()
		spec := Spec{Kind: KindExplore, Algorithm: "native", N: 7, K: 3, Workload: "clustered", Workers: workers}
		snap, err := e.Submit("c1", spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitFinal(t, e, snap.ID)
		if final.State != StateDone {
			t.Fatalf("workers=%d: ended %s: %s", workers, final.State, final.Error)
		}
		if final.Spec.Workers != workers {
			t.Fatalf("snapshot echoes workers=%d, submitted %d", final.Spec.Workers, workers)
		}
		res, err := e.Result(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if res.Explore == nil {
			t.Fatal("no explore report")
		}
		return res.Explore
	}
	seq := run(0)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("workers changed the report:\n%+v\n%+v", seq, par)
	}
	if !seq.Complete || !par.Complete {
		t.Errorf("incomplete: seq=%v par=%v", seq.Complete, par.Complete)
	}
}

// TestExploreJobEmitsProgressEvents: explore jobs publish "progress"
// events carrying live search snapshots (at minimum the final one),
// each naming the placement searched, so daemon clients can watch a
// long search instead of a silent gap between "started" and "done".
func TestExploreJobEmitsProgressEvents(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	events, cancel := e.Subscribe(4096)
	defer cancel()
	spec := Spec{Kind: KindExplore, Algorithm: "native", N: 6, K: 2, Workload: "clustered"}
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Submit("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFinal(t, e, snap.ID)
	timeout := time.After(10 * time.Second)
	progress := 0
	for {
		select {
		case ev := <-events:
			// The runLoop's generic cell-progress events (Explore == nil)
			// coexist with the search snapshots; only the latter count.
			if ev.Type == "progress" && ev.JobID == snap.ID && ev.Explore != nil {
				if ev.Explore.States < 0 || ev.Explore.Replays <= 0 {
					t.Fatalf("implausible snapshot: %+v", ev.Explore)
				}
				if !slices.Equal(ev.Explore.Homes, plan.Explore.Homes) {
					t.Fatalf("snapshot names homes %v, the job explores %v", ev.Explore.Homes, plan.Explore.Homes)
				}
				progress++
			}
			if ev.Type == "done" {
				if progress == 0 {
					t.Fatal("no search-snapshot progress events before done")
				}
				return
			}
		case <-timeout:
			t.Fatalf("no done event; saw %d progress events", progress)
		}
	}
}
