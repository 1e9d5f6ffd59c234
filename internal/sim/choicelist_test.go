package sim_test

import (
	"errors"
	"slices"
	"testing"

	"agentring/internal/baseline"
	"agentring/internal/core"
	"agentring/internal/embed"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/topo"
)

// referee holds the engine's patched choice list to a rebuild from the
// bitsets at every decision point it sees, then lets inner pick.
type referee struct {
	t         *testing.T
	e         *sim.Engine
	inner     sim.Scheduler
	decisions int
}

// check compares the list with a rebuild, the engine's lookup of each
// agent's entry with the agent's place in the rebuild, and
// DecisionPoint's return with the list: the list itself, then the
// adversary's moves, or a forced repair alone.
func (r *referee) check(choices []sim.Choice) {
	r.t.Helper()
	listed, ok := sim.ChoiceList(r.e)
	if !ok {
		r.t.Fatalf("decision %d: the choice list is stale at a decision point", r.decisions)
	}
	rebuilt := sim.RebuiltChoices(r.e)
	if !slices.Equal(listed, rebuilt) {
		r.t.Fatalf("decision %d (step %d): patched list %v, rebuilt %v", r.decisions, r.e.Steps(), listed, rebuilt)
	}
	for id, i := range sim.ListIndexes(r.e) {
		if want := slices.IndexFunc(rebuilt, func(c sim.Choice) bool { return c.Agent == id }); i != want {
			r.t.Fatalf("decision %d (step %d): agent %d found at %d, listed at %d in %v", r.decisions, r.e.Steps(), id, i, want, rebuilt)
		}
	}
	n := len(listed)
	forced := n > 0 && len(choices) == 1 && choices[0].Kind == sim.ChoiceRepair
	if !forced {
		if len(choices) < n || !slices.Equal(choices[:n], listed) {
			r.t.Fatalf("decision %d: DecisionPoint returned %v, the list is %v", r.decisions, choices, listed)
		}
		for _, c := range choices[n:] {
			if c.Agent != -1 {
				r.t.Fatalf("decision %d: agent action %v past the list %v", r.decisions, c, listed)
			}
		}
	}
	r.decisions++
}

// Pick implements sim.Scheduler.
func (r *referee) Pick(step int, choices []sim.Choice) int {
	r.check(choices)
	return r.inner.Pick(step, choices)
}

// roamer walks its topology through every port in turn, broadcasting at
// each node it reaches and, every third action, waiting for a message
// from a co-located roamer, until it has moved walk times.
type roamer struct{ walk, i, woken int }

func (p *roamer) Frame() sim.Frame { return &roamer{walk: p.walk} }

func (p *roamer) Step(api sim.API) sim.Action {
	p.woken += len(api.Messages())
	if p.i == p.walk {
		return sim.Action{Kind: sim.ActionDone}
	}
	api.Broadcast(p.i)
	p.i++
	if p.i%3 == 0 && api.AgentsHere() > 0 {
		return sim.Action{Kind: sim.ActionAwait}
	}
	return sim.Action{Kind: sim.ActionMove, Port: p.i % api.OutDegree()}
}

func (p *roamer) SaveState(buf []int) []int { return append(buf, p.i, p.woken) }

func (p *roamer) LoadState(buf []int) int {
	p.i, p.woken = buf[0], buf[1]
	return 2
}

// funnel is a topology with nodes that have no in-edge: nodes 0..3 each
// lead into the cycle 4 -> 5 -> 6 -> 4, so their home activations have
// no arrival to displace.
type funnel struct{}

func (funnel) Size() int      { return 7 }
func (funnel) Degree(int) int { return 1 }
func (funnel) Neighbor(v, _ int) int {
	if v < 4 {
		return 4
	}
	return 4 + (v-3)%3
}

// listAlgorithms are the production algorithms the referee runs on the
// ring; binative runs on the bidirectional ring.
var listAlgorithms = []string{"native", "nativeKnowN", "logspace", "relaxed", "naive", "firstfit"}

func listPrograms(t *testing.T, alg string, n, k int) []sim.Program {
	t.Helper()
	programs := make([]sim.Program, k)
	for i := range programs {
		var err error
		switch alg {
		case "native":
			programs[i], err = core.NewAlg1(core.KnowAgents, k)
		case "nativeKnowN":
			programs[i], err = core.NewAlg1(core.KnowNodes, n)
		case "logspace":
			programs[i], err = core.NewAlg2(k)
		case "relaxed":
			programs[i] = core.NewRelaxed()
		case "naive":
			programs[i] = core.NewNaiveEstimator()
		case "firstfit":
			programs[i], err = baseline.NewFirstFit(n, k)
		case "binative":
			programs[i], err = core.NewBiNative(k)
		case "roamer":
			programs[i] = &roamer{walk: 3 * n}
		default:
			t.Fatalf("unknown algorithm %q", alg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return programs
}

func listSchedulers() map[string]func() sim.Scheduler {
	return map[string]func() sim.Scheduler{
		"roundrobin":  func() sim.Scheduler { return sim.NewRoundRobin() },
		"random":      func() sim.Scheduler { return sim.NewRandom(11) },
		"synchronous": func() sim.Scheduler { return sim.NewSynchronous() },
		"adversarial": func() sim.Scheduler { return sim.NewAdversarial(sim.DefaultAdversaryBound) },
	}
}

// listCase is one engine the referee watches.
type listCase struct {
	top   sim.Topology
	homes []int
	alg   string
	opts  sim.Options
}

func (c listCase) engine(t *testing.T) *sim.Engine {
	t.Helper()
	e, err := sim.NewEngine(c.top, c.homes, listPrograms(t, c.alg, c.top.Size(), len(c.homes)), c.opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runRefereed runs c to quiescence under the scheduler, with the
// referee checking every decision point, the final one included. The
// referee is not a *RoundRobin, so Run never takes the fast path.
func runRefereed(t *testing.T, c listCase, sched sim.Scheduler, observe func(*sim.Engine)) {
	t.Helper()
	r := &referee{t: t, inner: sched}
	c.opts.Scheduler = r
	if observe != nil {
		c.opts.Observer = func(sim.Configuration) { observe(r.e) }
	}
	r.e = c.engine(t)
	if _, err := r.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r.check(r.e.DecisionPoint())
}

// driveRefereed takes over e through the step API from wherever it
// stands, checking every decision point until quiescence; pick chooses
// among each decision point's choices.
func driveRefereed(t *testing.T, e *sim.Engine, pick func(d int, cs []sim.Choice) int) int {
	t.Helper()
	r := &referee{t: t, e: e}
	for {
		cs := e.DecisionPoint()
		r.check(cs)
		if len(cs) == 0 {
			return r.decisions
		}
		if err := e.ApplyChoice(cs[pick(r.decisions-1, cs)]); err != nil {
			t.Fatalf("decision %d: ApplyChoice: %v", r.decisions-1, err)
		}
	}
}

func mustTorus(t *testing.T, rows, cols int) sim.Topology {
	t.Helper()
	tor, err := topo.NewTorus(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

func mustTree(t *testing.T) sim.Topology {
	t.Helper()
	tree, err := embed.NewTree(9, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 5}, {2, 6}, {6, 7}, {6, 8}})
	if err != nil {
		t.Fatal(err)
	}
	return tree.Topology()
}

// TestChoiceListMatchesRebuild is the referee of the patched choice
// list: at every decision point the list the engine keeps current
// across atomic actions must equal the list enabledChoices rebuilds
// from the bitsets, the engine must find each listed agent's entry at
// its index through the agent's recorded slot and report every other
// agent unlisted, and DecisionPoint must return the list (followed
// only by the adversary's moves). It covers every site that patches
// the list — an enqueue onto an empty link, a dequeue, a resident's home
// activation on substrates whose nodes have several in-edges or none, a
// wake, a broadcast that makes an agent wakeable, and SetEdgeState from
// fault schedules (force-fired batches included), the online adversary
// (forced repairs included) and an Observer — and every site that
// marks it stale: Restore into the same and into a fresh engine, and a
// round-robin Run handing over to the step API.
func TestChoiceListMatchesRebuild(t *testing.T) {
	ringHomes := []int{0, 3, 4, 11, 17, 25}
	scheds := listSchedulers()

	t.Run("algorithms", func(t *testing.T) {
		for _, alg := range append(slices.Clone(listAlgorithms), "binative") {
			var top sim.Topology = ring.MustNew(36)
			if alg == "binative" {
				top = mustBiRing(t, 36)
			}
			for name, mk := range scheds {
				t.Run(alg+"/"+name, func(t *testing.T) {
					runRefereed(t, listCase{top: top, homes: ringHomes, alg: alg}, mk(), nil)
				})
			}
		}
	})

	t.Run("substrates", func(t *testing.T) {
		subs := []struct {
			name  string
			top   sim.Topology
			homes []int
		}{
			{"torus", mustTorus(t, 4, 5), []int{0, 1, 5, 6, 7, 12}},
			{"tree", mustTree(t), []int{0, 1, 2, 4, 6, 7}},
			{"funnel", funnel{}, []int{0, 1, 2, 3, 5}},
		}
		for _, sub := range subs {
			for name, mk := range scheds {
				t.Run(sub.name+"/"+name, func(t *testing.T) {
					runRefereed(t, listCase{top: sub.top, homes: sub.homes, alg: "roamer"}, mk(), nil)
				})
			}
		}
	})

	t.Run("faults", func(t *testing.T) {
		schedules := map[string]sim.FaultSchedule{
			// A transient outage while agents are on the move.
			"transient": {{Step: 10, From: 18}, {Step: 90, From: 18, Up: true}},
			// Two links fail at once and are repaired long after every
			// agent has frozen or halted: the repairs force-fire as a
			// batch.
			"force-fired": {
				{Step: 2, From: 7}, {Step: 2, From: 20},
				{Step: 1 << 20, From: 7, Up: true}, {Step: 1 << 20, From: 20, Up: true},
			},
			// Fail and repair the same link twice, the second time by a
			// force-fired repair.
			"flapping": {
				{Step: 5, From: 3}, {Step: 30, From: 3, Up: true},
				{Step: 40, From: 3}, {Step: 1 << 20, From: 3, Up: true},
			},
		}
		for _, alg := range []string{"native", "logspace", "relaxed"} {
			for fname, fs := range schedules {
				for _, sched := range []string{"random", "adversarial"} {
					t.Run(alg+"/"+fname+"/"+sched, func(t *testing.T) {
						c := listCase{top: ring.MustNew(36), homes: ringHomes, alg: alg, opts: sim.Options{Faults: fs}}
						runRefereed(t, c, scheds[sched](), nil)
					})
				}
			}
		}
	})

	t.Run("adversary", func(t *testing.T) {
		budgets := map[string]sim.AdversaryBudget{
			"1/3":    {MaxConcurrent: 1, RepairWithin: 3},
			"2/2/12": {MaxConcurrent: 2, RepairWithin: 2, MaxTotal: 12},
		}
		for bname, b := range budgets {
			for _, alg := range []string{"native", "logspace", "binative"} {
				t.Run(alg+"/"+bname, func(t *testing.T) {
					var top sim.Topology = ring.MustNew(12)
					if alg == "binative" {
						top = mustBiRing(t, 12)
					}
					c := listCase{top: top, homes: []int{0, 1, 5, 6}, alg: alg, opts: sim.Options{Adversary: &b}}
					// Every fourth decision takes the last choice, the
					// highest fail or repair when the adversary offers
					// one; the others take agent actions, so a failed
					// link stays down until its repair is forced.
					forced := 0
					decisions := driveRefereed(t, c.engine(t), func(d int, cs []sim.Choice) int {
						if len(cs) == 1 && cs[0].Kind == sim.ChoiceRepair {
							forced++
						}
						agents := 0
						for agents < len(cs) && cs[agents].Agent >= 0 {
							agents++
						}
						if d%4 == 0 || agents == 0 {
							return len(cs) - 1
						}
						return (d * 7) % agents
					})
					if forced == 0 {
						t.Fatalf("no forced repair in %d decisions", decisions)
					}
				})
			}
		}
	})

	t.Run("restore", func(t *testing.T) {
		for _, alg := range []string{"logspace", "relaxed", "firstfit"} {
			t.Run(alg, func(t *testing.T) {
				c := listCase{top: ring.MustNew(36), homes: ringHomes, alg: alg, opts: sim.Options{
					TrackState: true,
					Faults:     sim.FaultSchedule{{Step: 12, From: 11}, {Step: 60, From: 11, Up: true}},
				}}
				e := c.engine(t)
				r := &referee{t: t, e: e}
				var cp sim.Checkpoint
				var saved []sim.Choice
				restores := 0
				// Checkpoint right after a DecisionPoint, keep going, and
				// every so often restore it — into this engine or into a
				// fresh one — and apply one of its choices directly, as
				// the explorer does: the list stays stale until the next
				// DecisionPoint rebuilds it.
				for d := 0; ; d++ {
					cs := e.DecisionPoint()
					r.check(cs)
					if len(cs) == 0 {
						break
					}
					ch := cs[(d*5)%len(cs)]
					switch {
					case d%9 == 4:
						if err := e.CheckpointTo(&cp); err != nil {
							t.Fatal(err)
						}
						saved = append(saved[:0], cs...)
					case d%9 == 7 && restores < 12:
						if restores%2 == 1 {
							e = c.engine(t)
							r.e = e
						}
						if err := e.Restore(&cp); err != nil {
							t.Fatal(err)
						}
						restores++
						ch = saved[d%len(saved)]
					}
					if err := e.ApplyChoice(ch); err != nil {
						t.Fatalf("decision %d: ApplyChoice: %v", d, err)
					}
				}
				if restores < 2 {
					t.Fatalf("%d restores, want one into this engine and one into a fresh one", restores)
				}
			})
		}
	})

	t.Run("round-robin handover", func(t *testing.T) {
		for _, alg := range []string{"native", "logspace", "relaxed"} {
			t.Run(alg, func(t *testing.T) {
				c := listCase{top: ring.MustNew(36), homes: ringHomes, alg: alg, opts: sim.Options{MaxSteps: 40}}
				e := c.engine(t)
				if _, err := e.Run(); !errors.Is(err, sim.ErrStepLimit) {
					t.Fatalf("Run = %v, want the step limit", err)
				}
				driveRefereed(t, e, func(d int, cs []sim.Choice) int { return (d * 3) % len(cs) })
			})
		}
	})

	t.Run("observer", func(t *testing.T) {
		for _, alg := range []string{"native", "logspace", "binative"} {
			t.Run(alg, func(t *testing.T) {
				var top sim.Topology = ring.MustNew(36)
				if alg == "binative" {
					top = mustBiRing(t, 36)
				}
				// Between atomic actions, fail the link out of a node some
				// agent just reached, and repair every failed link a few
				// actions later.
				var down []int
				observe := func(e *sim.Engine) {
					s := e.Steps()
					switch {
					case s%6 == 1:
						v := (s * 5) % 36
						if err := e.SetEdgeState(v, 0, false); err != nil {
							t.Fatal(err)
						}
						down = append(down, v)
					case s%6 == 4:
						for _, v := range down {
							if err := e.SetEdgeState(v, 0, true); err != nil {
								t.Fatal(err)
							}
						}
						down = down[:0]
					}
				}
				runRefereed(t, listCase{top: top, homes: ringHomes, alg: alg}, sim.NewRandom(3), observe)
			})
		}
	})
}
