package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"agentring/internal/core"
	"agentring/internal/reference"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

// subsets enumerates all non-empty subsets of {0..n-1} as sorted
// position slices.
func subsets(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var s []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				s = append(s, v)
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
// where the route ended. Frame runs the script as a checkpointable
// frame, the form Explore searches; ref is the same script as a
// reference body, the form the from-root referee replays.
type walker struct {
	route []int
	pause time.Duration
	drop  bool
	watch bool
	back  int
}

func (w walker) ref(api reference.API) error {
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

// walkerRefs is walkers' reference form: the same scripts as bodies on
// internal/reference's coroutine adapter (stopped when t ends).
func walkerRefs(t testing.TB, ws ...walker) Factory {
	return func() ([]sim.Program, error) {
		ps := make([]sim.Program, len(ws))
		for i, w := range ws {
			ps[i] = reference.Program(t, w.ref)
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
	n, homes, err := workload.Pumped(1, []int{0}, 5, 3)
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

// TestReductionConsistency cross-checks the sleep-set reduction and the
// state cache's revisit rule against the reduction-free search. The
// reduction may only skip redundant interleavings, so the reduced
// search must reach the same verdict and — where
// no counterexample stops the searches early — the same reachable
// states and distinct terminals. And since the revisit rule expands
// each (state, transition) pair at most once while the reduction-free
// search expands every pair of every reachable state, the reduced
// search must not expand more (Replays) — again checked only where no
// counterexample cuts the searches short. On those clean searches every
// expansion but the root's applies exactly one engine action, in both
// the reduced and the reduction-free search, so StepsReplayed must be
// Replays - 1.
//
// The grid: every placement with an agent on node 0 (so every rotation
// class) on rings up to n=4, under each of the four algorithms, with
// each crosscheckTimelines fault timeline whose links exist on the
// ring, and against a 1/3 adversary; plus three alg2 placements on the
// 5-ring, which must also be counterexample-free.
func TestReductionConsistency(t *testing.T) {
	type cell struct {
		label     string
		setup     Setup
		wantClean bool
	}
	algs := []struct {
		name    string
		factory func(k int) Factory
	}{
		{"alg1", alg1Factory},
		{"alg2", alg2Factory},
		{"relaxed", relaxedFactory},
		{"naive", naiveFactory},
	}
	adversary := &sim.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3, MaxTotal: 1}
	var cells []cell
	for n := 1; n <= 4; n++ {
		for _, homes := range subsets(n) {
			if homes[0] != 0 {
				continue
			}
			for _, alg := range algs {
				setup := Setup{N: n, Homes: homes, Programs: alg.factory(len(homes))}
				label := fmt.Sprintf("%s n=%d homes=%v", alg.name, n, homes)
			timelines:
				for tl, faults := range crosscheckTimelines() {
					for _, e := range faults {
						if e.From >= n {
							continue timelines
						}
					}
					s := setup
					s.Faults = faults
					cells = append(cells, cell{label: label + " " + tl, setup: s})
				}
				s := setup
				s.Adversary = adversary
				cells = append(cells, cell{label: label + " adversary 1/3", setup: s})
			}
		}
	}
	for _, homes := range [][]int{{0, 2, 4}, {0, 1, 2, 3}, {0, 1, 4}} {
		cells = append(cells, cell{
			label:     fmt.Sprintf("alg2 n=5 homes=%v static", homes),
			setup:     Setup{N: 5, Homes: homes, Programs: alg2Factory(len(homes))},
			wantClean: true,
		})
	}
	for _, c := range cells {
		base, err := Explore(context.Background(), c.setup, Options{DisableReduction: true})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if c.wantClean && base.Counterexample != nil {
			t.Errorf("%s: unexpected counterexample:\n%s", c.label, base.Counterexample)
		}
		if base.Counterexample == nil && base.StepsReplayed != int64(base.Replays-1) {
			t.Errorf("%s reduction-free: %d applied actions for %d expansions, want one per non-root expansion",
				c.label, base.StepsReplayed, base.Replays)
		}
		red, err := Explore(context.Background(), c.setup, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if (red.Counterexample != nil) != (base.Counterexample != nil) {
			t.Errorf("%s: verdicts disagree: reduced cex=%v, reduction-free cex=%v",
				c.label, red.Counterexample, base.Counterexample)
			continue
		}
		if base.Counterexample != nil {
			continue
		}
		if red.States != base.States || red.DistinctTerminals != base.DistinctTerminals {
			t.Errorf("%s: reduction changed coverage: states %d->%d, terminals %d->%d",
				c.label, base.States, red.States, base.DistinctTerminals, red.DistinctTerminals)
		}
		if red.Replays > base.Replays {
			t.Errorf("%s: reduced search expanded more than the reduction-free one (%d > %d replays)",
				c.label, red.Replays, base.Replays)
		}
		if red.StepsReplayed != int64(red.Replays-1) {
			t.Errorf("%s: %d applied actions for %d expansions, want one per non-root expansion",
				c.label, red.StepsReplayed, red.Replays)
		}
	}
}

// TestDepthTruncation checks that the depth bound truncates instead of
// mislabeling unfinished branches.
func TestDepthTruncation(t *testing.T) {
	homes := []int{0, 3}
	rep, err := Explore(context.Background(), Setup{N: 6, Homes: homes, Programs: alg1Factory(2)}, Options{Budget: Budget{MaxDepth: 3}})
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
	homes := []int{0, 3}
	rep, err := Explore(context.Background(), Setup{N: 6, Homes: homes, Programs: alg1Factory(2)}, Options{Budget: Budget{MaxTotalMoves: 2}})
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
// not counterexamples. That includes more than 64 agents, one more than
// the agent-bitmask sleep sets can name.
func TestExploreSetupErrors(t *testing.T) {
	homes65 := make([]int, 65)
	for i := range homes65 {
		homes65[i] = i
	}
	cases := []struct {
		name  string
		setup Setup
	}{
		{"nil factory", Setup{N: 4, Homes: []int{0}}},
		{"zero-node ring", Setup{N: 0, Homes: []int{0}, Programs: alg1Factory(1)}},
		{"duplicate homes", Setup{N: 4, Homes: []int{0, 0}, Programs: alg1Factory(2)}},
		{"65 agents", Setup{N: 65, Homes: homes65, Programs: alg1Factory(65)}},
	}
	for _, tc := range cases {
		if _, err := Explore(context.Background(), tc.setup, Options{}); !errors.Is(err, ErrSetup) {
			t.Errorf("%s: err = %v, want ErrSetup", tc.name, err)
		}
	}
}
