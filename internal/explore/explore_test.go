package explore

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"agentring/internal/core"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

// subsets enumerates all non-empty subsets of {0..n-1} as sorted
// position slices.
func subsets(n int) [][]ring.NodeID {
	var out [][]ring.NodeID
	for mask := 1; mask < 1<<n; mask++ {
		var s []ring.NodeID
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				s = append(s, ring.NodeID(v))
			}
		}
		out = append(out, s)
	}
	return out
}

func alg1Factory(k int) Factory {
	return func() ([]sim.Program, error) {
		ps := make([]sim.Program, k)
		for i := range ps {
			p, err := core.NewAlg1(core.KnowAgents, k)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return ps, nil
	}
}

func alg2Factory(k int) Factory {
	return func() ([]sim.Program, error) {
		ps := make([]sim.Program, k)
		for i := range ps {
			p, err := core.NewAlg2(k)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return ps, nil
	}
}

func naiveFactory(k int) Factory {
	return func() ([]sim.Program, error) {
		ps := make([]sim.Program, k)
		for i := range ps {
			ps[i] = core.NewNaiveEstimator()
		}
		return ps, nil
	}
}

func relaxedFactory(k int) Factory {
	return func() ([]sim.Program, error) {
		ps := make([]sim.Program, k)
		for i := range ps {
			ps[i] = core.NewRelaxed()
		}
		return ps, nil
	}
}

// walker is the scripted test agent the explorer's synthetic scenarios
// are built from: it moves through route (one port per atomic action,
// sleeping pause before each move), then releases a token if drop is
// set, and, if watch is set, takes port back when it finds a token
// where the route ended. Run is the reference semantics; Frame runs the
// same script as a checkpointable frame, the only kind of program
// Explore searches.
type walker struct {
	route []int
	pause time.Duration
	drop  bool
	watch bool
	back  int
}

func (w walker) Run(api sim.API) error {
	for _, p := range w.route {
		time.Sleep(w.pause)
		api.MoveVia(p)
	}
	if w.drop {
		api.ReleaseToken()
	}
	if w.watch && api.TokensHere() > 0 {
		api.MoveVia(w.back)
	}
	return nil
}

func (w walker) Frame() sim.Frame { return &walkerFrame{w: w} }

// walkerFrame is a walker's script as a frame; moved counts the moves
// made so far, the frame's whole resumable state.
type walkerFrame struct {
	w     walker
	moved int
}

func (f *walkerFrame) Step(api sim.API) sim.Action {
	w := f.w
	if f.moved < len(w.route) {
		time.Sleep(w.pause)
		f.moved++
		return sim.Action{Kind: sim.ActionMove, Port: w.route[f.moved-1]}
	}
	if f.moved == len(w.route) {
		if w.drop {
			api.ReleaseToken()
		}
		if w.watch && api.TokensHere() > 0 {
			f.moved++
			return sim.Action{Kind: sim.ActionMove, Port: w.back}
		}
	}
	return sim.Action{Kind: sim.ActionDone}
}

func (f *walkerFrame) SaveState(buf []int) []int { return append(buf, f.moved) }

func (f *walkerFrame) LoadState(buf []int) int {
	f.moved = buf[0]
	return 1
}

// walkers returns a factory handing every engine the given scripts
// (walker values are immutable; each engine builds its own frames).
func walkers(ws ...walker) Factory {
	return func() ([]sim.Program, error) {
		ps := make([]sim.Program, len(ws))
		for i, w := range ws {
			ps[i] = w
		}
		return ps, nil
	}
}

// pausingWalkers is k walkers of steps forward moves each, sleeping
// 20µs before every move: a search over them stays slow enough for a
// few-millisecond budget or deadline to fire mid-run, and an expanding
// worker yields the processor, so a pool of workers really interleaves
// even on one CPU.
func pausingWalkers(k, steps int) Factory {
	ws := make([]walker, k)
	for i := range ws {
		ws[i] = walker{route: make([]int, steps), pause: 20 * time.Microsecond}
	}
	return walkers(ws...)
}

// TestExhaustiveCleanAlgorithms model-checks the paper's universally
// quantified claim head-on: for Algorithm 1 and Algorithms 2+3, *every*
// asynchronous schedule from *every* initial configuration on rings up
// to n=6 ends in a uniform terminal configuration. The exploration is
// complete (no truncation), so within these bounds the claim is a
// mechanically checked fact, not a sampled observation.
func TestExhaustiveCleanAlgorithms(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	algs := []struct {
		name    string
		factory func(k int) Factory
	}{
		{"alg1", alg1Factory},
		{"alg2", alg2Factory},
	}
	for _, alg := range algs {
		t.Run(alg.name, func(t *testing.T) {
			var states, terminals int
			for n := 1; n <= maxN; n++ {
				for _, homes := range subsets(n) {
					rep, err := Explore(context.Background(), Setup{N: n, Homes: homes, Programs: alg.factory(len(homes))}, Options{})
					if err != nil {
						t.Fatalf("n=%d homes=%v: %v", n, homes, err)
					}
					if rep.Counterexample != nil {
						t.Fatalf("n=%d homes=%v: unexpected counterexample:\n%s",
							n, homes, rep.Counterexample)
					}
					if !rep.Complete {
						t.Fatalf("n=%d homes=%v: exploration truncated (%d branches, %d states)",
							n, homes, rep.Truncated, rep.States)
					}
					if rep.DistinctTerminals == 0 {
						t.Fatalf("n=%d homes=%v: no terminal configuration reached", n, homes)
					}
					states += rep.States
					terminals += rep.DistinctTerminals
				}
			}
			t.Logf("%s: %d states, %d distinct terminals over all n<=%d configurations",
				alg.name, states, terminals, maxN)
		})
	}
}

// TestNaiveHaltingTheorem5 replays the Theorem 5 impossibility: on a
// pumped ring (the one-agent pattern repeated five times plus padding)
// the estimate-then-halt strategy has a schedule — found automatically —
// that ends in a non-uniform terminal configuration.
func TestNaiveHaltingTheorem5(t *testing.T) {
	n, homes, err := workload.Pumped(1, []ring.NodeID{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(context.Background(), Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("expected a counterexample on the pumped ring (n=%d homes=%v); report %+v", n, homes, rep)
	}
	if !strings.Contains(cex.Reason, "not uniform") {
		t.Fatalf("counterexample reason = %q, want a non-uniform terminal", cex.Reason)
	}
	if len(cex.Prefix) != len(cex.Schedule) {
		t.Fatalf("prefix/schedule length mismatch: %d vs %d", len(cex.Prefix), len(cex.Schedule))
	}
	if verify.IsUniform(n, cex.Positions) {
		t.Fatalf("counterexample positions %v are uniform", cex.Positions)
	}

	// The counterexample must replay: driving a fresh engine down the
	// recorded decision prefix reproduces the same failing terminal.
	programs, err := naiveFactory(len(homes))()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{
		Scheduler: sim.NewControlled(cex.Prefix),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if !res.Quiesced {
		t.Fatal("replayed counterexample did not quiesce")
	}
	got := res.Positions()
	for i := range got {
		if got[i] != cex.Positions[i] {
			t.Fatalf("replayed positions %v != counterexample positions %v", got, cex.Positions)
		}
	}
}

// TestReductionConsistency cross-checks the sleep-set reduction: it may
// only skip redundant interleavings, so the sets of reachable states
// and of distinct terminal configurations must match an unreduced
// exploration exactly.
func TestReductionConsistency(t *testing.T) {
	for _, homes := range [][]ring.NodeID{
		{0, 2, 4},
		{0, 1, 2, 3},
		{0, 1, 4},
	} {
		const n = 5
		base, err := Explore(context.Background(), Setup{N: n, Homes: homes, Programs: alg2Factory(len(homes))},
			Options{DisableReduction: true})
		if err != nil {
			t.Fatal(err)
		}
		red, err := Explore(context.Background(), Setup{N: n, Homes: homes, Programs: alg2Factory(len(homes))}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base.States != red.States || base.DistinctTerminals != red.DistinctTerminals {
			t.Fatalf("homes=%v: reduction changed coverage: states %d->%d, terminals %d->%d",
				homes, base.States, red.States, base.DistinctTerminals, red.DistinctTerminals)
		}
		if base.Counterexample != nil || red.Counterexample != nil {
			t.Fatalf("homes=%v: unexpected counterexample", homes)
		}
	}
}

// TestParallelWorkersCoverage checks that distributing subtrees over a
// worker pool covers exactly the same state space.
func TestParallelWorkersCoverage(t *testing.T) {
	homes := []ring.NodeID{0, 2, 4}
	const n = 6
	seq, err := Explore(context.Background(), Setup{N: n, Homes: homes, Programs: alg1Factory(len(homes))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explore(context.Background(), Setup{N: n, Homes: homes, Programs: alg1Factory(len(homes))}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.States != par.States || seq.DistinctTerminals != par.DistinctTerminals {
		t.Fatalf("parallel coverage differs: states %d vs %d, terminals %d vs %d",
			seq.States, par.States, seq.DistinctTerminals, par.DistinctTerminals)
	}
	if !par.Complete || par.Counterexample != nil {
		t.Fatalf("parallel run: complete=%v cex=%v", par.Complete, par.Counterexample)
	}
}

// TestDepthTruncation checks that the depth bound truncates instead of
// mislabeling unfinished branches.
func TestDepthTruncation(t *testing.T) {
	homes := []ring.NodeID{0, 3}
	rep, err := Explore(context.Background(), Setup{N: 6, Homes: homes, Programs: alg1Factory(2)}, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("exploration claims completeness under a depth bound that cannot reach quiescence")
	}
	if rep.Truncated == 0 {
		t.Fatal("no truncated branches reported")
	}
	if rep.Counterexample != nil {
		t.Fatalf("truncation produced a bogus counterexample: %v", rep.Counterexample)
	}
}

// TestMoveBoundCounterexample checks that an unreachable move bound
// surfaces as a counterexample with a concrete schedule.
func TestMoveBoundCounterexample(t *testing.T) {
	homes := []ring.NodeID{0, 3}
	rep, err := Explore(context.Background(), Setup{N: 6, Homes: homes, Programs: alg1Factory(2)}, Options{MaxTotalMoves: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counterexample == nil {
		t.Fatal("expected a move-bound counterexample")
	}
	if !strings.Contains(rep.Counterexample.Reason, "exceed bound") {
		t.Fatalf("reason = %q", rep.Counterexample.Reason)
	}
}

// TestExploreSetupErrors checks setup validation surfaces as ErrSetup,
// not counterexamples. That includes programs running as coroutines:
// the search reaches states only by checkpoint and restore, so a
// program without a sim.FrameSaver frame is refused, whether every
// agent or just one runs that way.
func TestExploreSetupErrors(t *testing.T) {
	coroutine := sim.ProgramFunc(func(api sim.API) error {
		api.Move()
		return nil
	})
	programs := func(ps ...sim.Program) Factory {
		return func() ([]sim.Program, error) { return ps, nil }
	}
	cases := []struct {
		name  string
		setup Setup
	}{
		{"nil factory", Setup{N: 4, Homes: []ring.NodeID{0}}},
		{"zero-node ring", Setup{N: 0, Homes: []ring.NodeID{0}, Programs: alg1Factory(1)}},
		{"duplicate homes", Setup{N: 4, Homes: []ring.NodeID{0, 0}, Programs: alg1Factory(2)}},
		{"coroutine programs", Setup{N: 4, Homes: []ring.NodeID{0, 2}, Programs: programs(coroutine, coroutine)}},
		{"one coroutine program", Setup{N: 4, Homes: []ring.NodeID{0, 2}, Programs: programs(walker{route: []int{0}}, coroutine)}},
	}
	for _, tc := range cases {
		if _, err := Explore(context.Background(), tc.setup, Options{}); !errors.Is(err, ErrSetup) {
			t.Errorf("%s: err = %v, want ErrSetup", tc.name, err)
		}
	}
}
