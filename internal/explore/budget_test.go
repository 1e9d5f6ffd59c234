package explore

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/topo"
)

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
			setup:     Setup{Topology: biring, Homes: []int{0, 1}, Programs: racyPrograms([]int{1, 1}, []int{1}, 0)},
			wantSkips: true,
		},
		{
			// Token race through a shared node reached over different
			// links — dependent actions the reduction must keep ordered.
			name:  "biring-shared-node",
			setup: Setup{Topology: biring, Homes: []int{0, 2}, Programs: racyPrograms([]int{1, 1}, []int{0}, 0)},
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
		Homes:    []int{0, 4, 8},
		Programs: pausingWalkers(3, 6),
	}, Options{Budget: Budget{MaxDuration: 5 * time.Millisecond}})
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
// the search's pop and its expansion — here, of the root item, the one
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
		Homes:    []int{0, 2},
		Programs: walkers(walker{route: []int{0, 0}}, walker{route: []int{0}}),
	}, Options{Budget: Budget{MaxDepth: DefaultMaxDepth, MaxStates: DefaultMaxStates}}, rankSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x.stop(abortBudget) // what poll does once MaxDuration has expired
	x.expand(root)
	rep := x.report()
	if rep.Complete || rep.Truncated < 1 {
		t.Fatalf("budget stop after the pop: Complete=%v Truncated=%d, want false and >= 1", rep.Complete, rep.Truncated)
	}
	if rep.States != 0 {
		t.Fatalf("States = %d, want 0: the stopped expansion must not run", rep.States)
	}
}

// TestBudgetStopAfterLastExpansion lands a budget stop after the search
// ran out of work but before it reports. Nothing was cut, so the report
// must claim completeness, not Complete == false with Truncated == 0.
func TestBudgetStopAfterLastExpansion(t *testing.T) {
	top := ring.MustNew(5)
	rankSrc, err := sim.RankSources(top)
	if err != nil {
		t.Fatal(err)
	}
	x, root, err := newExplorer(Setup{
		N:        5,
		Topology: top,
		Homes:    []int{0, 2},
		Programs: walkers(walker{route: []int{0, 0}}, walker{route: []int{0}}),
		Property: func(sim.Result) string { return "" },
	}, Options{Budget: Budget{MaxDepth: DefaultMaxDepth, MaxStates: DefaultMaxStates}}, rankSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x.stack = append(x.stack, root)
	x.search()
	x.stop(abortBudget)
	rep := x.report()
	if !rep.Complete || rep.Truncated != 0 || rep.States == 0 {
		t.Fatalf("budget stop after the last expansion: %+v, want a complete report with nothing truncated", rep)
	}
}

// TestBudgetStopCountsInPlaceChild lands a budget stop in the middle of
// an in-place descent. One agent on a 5-ring gives every state exactly
// one child, so the whole search runs inside the root item's expansion
// and nothing is ever pushed: the child the stop cuts off was never on
// the stack, and expand must count it itself.
func TestBudgetStopCountsInPlaceChild(t *testing.T) {
	top := ring.MustNew(5)
	rankSrc, err := sim.RankSources(top)
	if err != nil {
		t.Fatal(err)
	}
	var x *explorer
	stop := func() { x.stop(abortBudget) } // what poll does once MaxDuration has expired
	x, root, err := newExplorer(Setup{
		N:        5,
		Topology: top,
		Homes:    []int{0},
		Programs: func() ([]sim.Program, error) { return []sim.Program{stoppingWalker{stop: stop}}, nil },
	}, Options{Budget: Budget{MaxDepth: DefaultMaxDepth, MaxStates: DefaultMaxStates}}, rankSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x.expand(root)
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
		Homes:    []int{0, 4, 8},
		Programs: pausingWalkers(3, 6),
	}, Options{})
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
// terminal. The search must notice at its next pop, whatever the
// scheduler does: every run reports context.Canceled, evaluates no
// terminal after the cancelling one, and covers the same partial
// state set.
func TestCancelFromPropertyStopsAtNextPop(t *testing.T) {
	// LogSpace on this placement ends in 24 distinct terminals.
	const cancelAt = 10
	search := func(ctx context.Context, property func(sim.Result) string) (Report, error) {
		return Explore(ctx, Setup{
			N:        8,
			Homes:    []int{0, 1, 2, 3, 5},
			Programs: alg2Factory(5),
			Property: property,
		}, Options{})
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
// snapshots whose counters grow monotonically, each naming the
// placement, plus a final snapshot whose ledger is the report's: after
// a complete search, and after a MaxDuration stop, where the report's
// Truncated counts the abandoned stack.
func TestProgressSnapshots(t *testing.T) {
	saved := progressInterval
	progressInterval = time.Millisecond
	defer func() { progressInterval = saved }()

	for _, tc := range []struct {
		name  string
		setup Setup
		opts  Options
	}{
		{"complete", Setup{N: 6, Homes: []int{0, 2, 4}, Programs: alg1Factory(3)}, Options{}},
		// Pausing walkers keep the search slow enough that a 5ms budget
		// expires mid-run (as in TestMaxDurationTruncates).
		{"max-duration", Setup{N: 13, Homes: []int{0, 4, 8}, Programs: pausingWalkers(3, 6)}, Options{Budget: Budget{MaxDuration: 5 * time.Millisecond}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var snaps []Progress
			tc.opts.Progress = func(p Progress) { snaps = append(snaps, p) }
			rep, err := Explore(context.Background(), tc.setup, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatal("no progress snapshots delivered")
			}
			for i, p := range snaps {
				if !slices.Equal(p.Homes, tc.setup.Homes) {
					t.Fatalf("snapshot %d names homes %v, the search explores %v", i, p.Homes, tc.setup.Homes)
				}
				if i > 0 && (p.States < snaps[i-1].States || p.Replays < snaps[i-1].Replays) {
					t.Fatalf("snapshot %d went backwards: %+v after %+v", i, p, snaps[i-1])
				}
			}
			final := snaps[len(snaps)-1]
			if final.Stats != rep.Stats {
				t.Errorf("final snapshot's ledger %+v, report's %+v", final.Stats, rep.Stats)
			}
			if tc.opts.MaxDuration > 0 {
				if rep.Complete || final.Frontier == 0 || rep.Truncated < final.Frontier {
					t.Errorf("budget stop: complete=%v truncated=%d frontier=%d, want an abandoned stack counted in Truncated",
						rep.Complete, rep.Truncated, final.Frontier)
				}
			} else if !rep.Complete || final.Frontier != 0 {
				t.Errorf("complete=%v frontier=%d, want a complete search with an empty stack", rep.Complete, final.Frontier)
			}
		})
	}
}
