package explore

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/topo"
	"agentring/internal/workload"
)

// TestCexDeterministicAcrossWorkers pins the deterministic-verdict
// contract: the counterexample reported for a fixed setup is
// byte-identical for every worker count (the parallel search keeps the
// lexicographically least candidate prefix and then confirms it with a
// sequential pass), and repeated parallel runs agree with themselves.
func TestCexDeterministicAcrossWorkers(t *testing.T) {
	n, homes, err := workload.Pumped(1, []ring.NodeID{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes))}

	explore := func(workers int) Counterexample {
		t.Helper()
		rep, err := Explore(context.Background(), setup, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Counterexample == nil {
			t.Fatalf("workers=%d: no counterexample on the pumped ring", workers)
		}
		return *rep.Counterexample
	}

	want := explore(1)
	for _, workers := range []int{2, 8, 8, 8} {
		got := explore(workers)
		if !slices.Equal(got.Prefix, want.Prefix) {
			t.Fatalf("workers=%d: prefix %v, sequential search found %v", workers, got.Prefix, want.Prefix)
		}
		if !slices.Equal(got.Schedule, want.Schedule) {
			t.Fatalf("workers=%d: schedule drifted:\n%v\nvs\n%v", workers, got.Schedule, want.Schedule)
		}
		if !slices.Equal(got.Positions, want.Positions) || got.Reason != want.Reason {
			t.Fatalf("workers=%d: terminal drifted: %v %q vs %v %q",
				workers, got.Positions, got.Reason, want.Positions, want.Reason)
		}
	}
}

// TestWorkersSpreadBeyondRootBranching is the regression test for the
// old frontier's ceiling: it split work only at the root, so a root
// with two enabled actions kept at most two workers busy no matter the
// pool size. The work-stealing frontier redistributes interior
// subtrees, so on a 2-child root (two agents, each with exactly one
// wake action) an 8-worker pool must still get more than two workers
// expanding states.
func TestWorkersSpreadBeyondRootBranching(t *testing.T) {
	// Two design choices make the test meaningful:
	//
	//   - the reduction is disabled, because a reduced 2-agent space is
	//     nearly path-shaped (sleep sets suppress most second children)
	//     and barely two work items ever coexist — there would be
	//     nothing to spread regardless of the frontier design;
	//   - each program step sleeps briefly, so an expanding worker
	//     yields the processor mid-expansion. On a single-CPU machine a
	//     pure-CPU search loop monopolizes the scheduler and the pool
	//     never warms up — which says nothing about the frontier.
	//
	// The spread is still timing-dependent, so the regression is
	// probabilistic: the old design could NEVER exceed 2 busy workers
	// here, the stealing frontier almost always does. Five attempts
	// make a false negative vanishingly unlikely.
	const attempts = 5
	best := 0
	for i := 0; i < attempts; i++ {
		var loads []int64
		rep, err := Explore(context.Background(), Setup{
			N:        13,
			Homes:    []ring.NodeID{0, 6},
			Programs: pausingWalkers(2, 6),
		}, Options{Workers: 8, DisableReduction: true, loads: &loads})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete || rep.Counterexample != nil {
			t.Fatalf("bad search: %+v", rep)
		}
		if len(loads) != 8 {
			t.Fatalf("loads for %d workers, want 8", len(loads))
		}
		busy := 0
		var total int64
		for _, l := range loads {
			if l > 0 {
				busy++
			}
			total += l
		}
		// Without a counterexample to confirm, Replays counts exactly
		// the expansions, so the loads must account for every one.
		if total != int64(rep.Replays) {
			t.Fatalf("per-worker loads sum to %d, report counted %d expansions", total, rep.Replays)
		}
		if busy > best {
			best = busy
		}
		if best > 2 {
			return
		}
	}
	t.Errorf("at most %d workers ever expanded states on a 2-child root across %d attempts; stealing is not redistributing subtrees", best, attempts)
}

// TestEdgeIndependenceSound cross-checks the per-directed-edge
// independence relation (see independent) on a substrate where it is
// strictly finer than the old out-neighborhood footprints: on the
// bidirectional ring, neighbors acting via links that do not touch
// each other's node commute under the new relation but conflicted
// under the old one. If the finer relation wrongly commuted dependent
// actions, the reduced search would lose states or terminals relative
// to a reduction-free reference.
func TestEdgeIndependenceSound(t *testing.T) {
	biring, err := topo.NewBiRing(5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		setup Setup
		// wantSkips marks scenarios built to contain commuting pairs the
		// finer relation must actually exploit.
		wantSkips bool
	}{
		{
			// Adjacent homes on the biring: under footprints every pair of
			// neighbor actions conflicted; under edge-FIFO independence the
			// backward-walking pair commutes.
			name:      "biring-adjacent",
			setup:     Setup{Topology: biring, Homes: []ring.NodeID{0, 1}, Programs: racyPrograms([]int{1, 1}, []int{1}, 0)},
			wantSkips: true,
		},
		{
			// Token race through a shared node reached over different
			// links — dependent actions the reduction must keep ordered.
			name:  "biring-shared-node",
			setup: Setup{Topology: biring, Homes: []ring.NodeID{0, 2}, Programs: racyPrograms([]int{1, 1}, []int{0}, 0)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			free, err := Explore(context.Background(), tc.setup, Options{DisableReduction: true})
			if err != nil {
				t.Fatal(err)
			}
			red, err := Explore(context.Background(), tc.setup, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if free.States != red.States || free.DistinctTerminals != red.DistinctTerminals {
				t.Fatalf("reduction changed coverage: states %d->%d terminals %d->%d",
					free.States, red.States, free.DistinctTerminals, red.DistinctTerminals)
			}
			if (free.Counterexample == nil) != (red.Counterexample == nil) {
				t.Fatalf("verdicts disagree: free=%v reduced=%v", free.Counterexample, red.Counterexample)
			}
			if tc.wantSkips && red.SleepSkips == 0 {
				t.Errorf("reduction skipped nothing; the scenario no longer exercises the independence relation")
			}
		})
	}
}

// TestMaxDurationTruncates: an expiring wall-clock budget stops the
// search where it is and reports honest partial coverage — truncated
// branches, no completeness claim, no bogus counterexample, no error.
func TestMaxDurationTruncates(t *testing.T) {
	// Pausing walkers keep the search slow enough that a 5ms budget
	// reliably expires mid-run.
	rep, err := Explore(context.Background(), Setup{
		N:        13,
		Homes:    []ring.NodeID{0, 4, 8},
		Programs: pausingWalkers(3, 6),
	}, Options{MaxDuration: 5 * time.Millisecond, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("search claims completeness under a 5ms budget")
	}
	if rep.Truncated == 0 {
		t.Error("no truncated branches reported for the abandoned frontier")
	}
	if rep.Counterexample != nil {
		t.Errorf("budget expiry produced a bogus counterexample: %v", rep.Counterexample)
	}
}

// TestBudgetStopCountsPoppedItem lands a wall-clock budget stop between
// a worker's pop and its expansion — here, of the root item, the one
// case where nothing else is left to count — and requires the dropped
// item in Truncated: a budget-stopped search must never report
// Truncated == 0 with Complete == false.
func TestBudgetStopCountsPoppedItem(t *testing.T) {
	top := ring.MustNew(5)
	rankSrc, err := sim.RankSources(top)
	if err != nil {
		t.Fatal(err)
	}
	x, root, err := newExplorer(Setup{
		N:        5,
		Topology: top,
		Homes:    []ring.NodeID{0, 2},
		Programs: walkers(walker{route: []int{0, 0}}, walker{route: []int{0}}),
	}, Options{MaxDepth: DefaultMaxDepth, MaxStates: DefaultMaxStates}, rankSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x.frontier.push(0, []item{root})
	it, ok := x.frontier.next(0)
	if !ok {
		t.Fatal("no root item to pop")
	}
	x.stop(abortBudget) // what a worker's pollStop does once MaxDuration has expired
	x.expand(0, it)
	x.frontier.finish()
	rep := x.report()
	if rep.Complete || rep.Truncated < 1 {
		t.Fatalf("budget stop after the pop: Complete=%v Truncated=%d, want false and >= 1", rep.Complete, rep.Truncated)
	}
	if rep.States != 0 {
		t.Fatalf("States = %d, want 0: the stopped expansion must not run", rep.States)
	}
}

// TestBudgetStopAfterLastExpansion lands a budget stop after the search
// ran out of work but before it reports, as a stop from outside the
// workers can. Nothing was cut, so the report must claim completeness,
// not Complete == false with Truncated == 0.
func TestBudgetStopAfterLastExpansion(t *testing.T) {
	top := ring.MustNew(5)
	rankSrc, err := sim.RankSources(top)
	if err != nil {
		t.Fatal(err)
	}
	x, root, err := newExplorer(Setup{
		N:        5,
		Topology: top,
		Homes:    []ring.NodeID{0, 2},
		Programs: walkers(walker{route: []int{0, 0}}, walker{route: []int{0}}),
		Property: func(sim.Result) string { return "" },
	}, Options{MaxDepth: DefaultMaxDepth, MaxStates: DefaultMaxStates}, rankSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x.frontier.push(0, []item{root})
	x.work(0)
	x.stop(abortBudget)
	rep := x.report()
	if !rep.Complete || rep.Truncated != 0 || rep.States == 0 {
		t.Fatalf("budget stop after the last expansion: %+v, want a complete report with nothing truncated", rep)
	}
}

// TestBudgetStopCountsInPlaceChild lands a budget stop in the middle of
// an in-place descent. One agent on a 5-ring gives every state exactly
// one child, so the whole search runs inside the root item's expansion
// and nothing is ever queued: the child the stop cuts off was never in
// the frontier, and expand must count it itself.
func TestBudgetStopCountsInPlaceChild(t *testing.T) {
	top := ring.MustNew(5)
	rankSrc, err := sim.RankSources(top)
	if err != nil {
		t.Fatal(err)
	}
	var x *explorer
	stop := func() { x.stop(abortBudget) } // what a worker's pollStop does once MaxDuration has expired
	x, root, err := newExplorer(Setup{
		N:        5,
		Topology: top,
		Homes:    []ring.NodeID{0},
		Programs: func() ([]sim.Program, error) { return []sim.Program{stoppingWalker{stop: stop}}, nil },
	}, Options{MaxDepth: DefaultMaxDepth, MaxStates: DefaultMaxStates}, rankSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x.expand(0, root)
	rep := x.report()
	if rep.Complete || rep.Truncated < 1 {
		t.Fatalf("budget stop mid-descent: Complete=%v Truncated=%d, want false and >= 1", rep.Complete, rep.Truncated)
	}
	// The stop fires in the action reaching the third state; the descent
	// must end there, before the walker's last two states.
	if rep.States != 3 {
		t.Fatalf("States = %d, want 3: the descent must stop where the budget expired", rep.States)
	}
}

// stoppingWalker walks three links forward and calls stop as it makes
// its second move.
type stoppingWalker struct{ stop func() }

func (s stoppingWalker) Frame() sim.Frame { return &stoppingFrame{stop: s.stop} }

type stoppingFrame struct {
	stop  func()
	moved int
}

func (f *stoppingFrame) Step(sim.API) sim.Action {
	if f.moved == 3 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.moved++
	if f.moved == 2 {
		f.stop()
	}
	return sim.Action{Kind: sim.ActionMove}
}

func (f *stoppingFrame) SaveState(buf []int) []int { return append(buf, f.moved) }

func (f *stoppingFrame) LoadState(buf []int) int {
	f.moved = buf[0]
	return 1
}

// TestContextCancelAborts: cancelling the context mid-search returns
// the context error with a partial report instead of hanging or
// claiming completeness.
func TestContextCancelAborts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	// Pausing walkers for the same reason as TestMaxDurationTruncates:
	// the search must still be running when the 5ms deadline fires.
	rep, err := Explore(ctx, Setup{
		N:        13,
		Homes:    []ring.NodeID{0, 4, 8},
		Programs: pausingWalkers(3, 6),
	}, Options{Workers: 4})
	if err == nil {
		t.Fatal("cancelled search returned no error")
	}
	if ctx.Err() == nil || err.Error() != ctx.Err().Error() {
		t.Fatalf("err = %v, want the context's %v", err, ctx.Err())
	}
	if rep.Complete {
		t.Fatal("cancelled search claims completeness")
	}
}

// TestCancelFromPropertyStopsAtNextPop cancels the context from inside
// the search, in the property callback at the cancelAt-th distinct
// terminal. A one-worker search must notice at its next pop, whatever
// the scheduler does: every run reports context.Canceled, evaluates no
// terminal after the cancelling one, and covers the same partial
// state set.
func TestCancelFromPropertyStopsAtNextPop(t *testing.T) {
	// LogSpace on this placement ends in 24 distinct terminals.
	const cancelAt = 10
	search := func(ctx context.Context, property func(sim.Result) string) (Report, error) {
		return Explore(ctx, Setup{
			N:        8,
			Homes:    []ring.NodeID{0, 1, 2, 3, 5},
			Programs: alg2Factory(5),
			Property: property,
		}, Options{Workers: 1})
	}
	full, err := search(context.Background(), func(sim.Result) string { return "" })
	if err != nil || !full.Complete {
		t.Fatalf("uncancelled search: complete %v, err %v", full.Complete, err)
	}
	states := -1
	for run := 0; run < 5; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		rep, err := search(ctx, func(sim.Result) string {
			if calls++; calls == cancelAt {
				cancel()
			}
			return ""
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", run, err)
		}
		if rep.Complete || rep.DistinctTerminals != cancelAt || calls != cancelAt {
			t.Fatalf("run %d: complete %v, %d distinct terminals, %d property calls; want incomplete, %d and %d",
				run, rep.Complete, rep.DistinctTerminals, calls, cancelAt, cancelAt)
		}
		if states == -1 {
			states = rep.States
		}
		if rep.States != states || rep.States >= full.States {
			t.Fatalf("run %d: %d states, want %d as in run 0, below the full search's %d", run, rep.States, states, full.States)
		}
	}
}

// TestProgressSnapshots: a Progress callback receives periodic
// snapshots whose counters grow monotonically, plus a final snapshot
// agreeing with the returned report.
func TestProgressSnapshots(t *testing.T) {
	saved := progressInterval
	progressInterval = time.Millisecond
	defer func() { progressInterval = saved }()

	var mu sync.Mutex
	var snaps []Progress
	rep, err := Explore(context.Background(), Setup{
		N:        6,
		Homes:    []ring.NodeID{0, 2, 4},
		Programs: alg1Factory(3),
	}, Options{Progress: func(p Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].States < snaps[i-1].States || snaps[i].Replays < snaps[i-1].Replays {
			t.Fatalf("snapshot %d went backwards: %+v after %+v", i, snaps[i], snaps[i-1])
		}
	}
	final := snaps[len(snaps)-1]
	if final.States != int64(rep.States) || final.Replays != int64(rep.Replays) {
		t.Errorf("final snapshot %+v disagrees with report states=%d replays=%d",
			final, rep.States, rep.Replays)
	}
}

// TestParallelParityLargeRing is the scale acceptance check: on a
// heavy n=8 clustered placement (5090 states — the n=8 exhaustive
// sweep's heaviest searches are the large-k clusters) the parallel
// search covers exactly the sequential state set. The full k=8
// placement (44k states, ~13s sequential) stays out of the unit suite
// and is covered by the explore-scale CI smoke instead.
func TestParallelParityLargeRing(t *testing.T) {
	homes := []ring.NodeID{0, 1, 2, 3, 4}
	if testing.Short() {
		homes = homes[:4]
	}
	setup := Setup{N: 8, Homes: homes, Programs: alg1Factory(len(homes))}
	seq, err := Explore(context.Background(), setup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explore(context.Background(), setup, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Complete || !par.Complete {
		t.Fatalf("incomplete: seq=%+v par=%+v", seq, par)
	}
	if seq.States != par.States || seq.DistinctTerminals != par.DistinctTerminals {
		t.Fatalf("parallel coverage differs at n=8: states %d vs %d, terminals %d vs %d",
			seq.States, par.States, seq.DistinctTerminals, par.DistinctTerminals)
	}
	if seq.Counterexample != nil || par.Counterexample != nil {
		t.Fatal("unexpected counterexample at n=8")
	}
}
