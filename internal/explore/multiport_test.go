package explore

import (
	"context"
	"fmt"
	"testing"

	"agentring/internal/embed"
	"agentring/internal/sim"
	"agentring/internal/topo"
)

// raceResult captures what a search saw, for reduction-vs-reference
// comparison.
type raceResult struct {
	distinctTerminals int
	complete          bool
	cexReason         string
}

func searchBoth(t *testing.T, setup Setup, opts Options) (with, without raceResult) {
	t.Helper()
	run := func(disable bool) raceResult {
		o := opts
		o.DisableReduction = disable
		rep, err := Explore(context.Background(), setup, o)
		if err != nil {
			t.Fatalf("Explore(disable=%v): %v", disable, err)
		}
		r := raceResult{distinctTerminals: rep.DistinctTerminals, complete: rep.Complete}
		if rep.Counterexample != nil {
			r.cexReason = rep.Counterexample.Reason
		}
		return r
	}
	return run(false), run(true)
}

// racyPrograms builds two agents whose terminal configuration depends
// on the interleaving: agent 1 releases a token one hop from its home,
// and agent 0 walks through that node and doubles back iff it sees the
// token. The walk directions are given per agent as port sequences so
// the same shape runs on any substrate.
func racyPrograms(route0 []int, route1 []int, back0 int) Factory {
	return walkers(walker{route: route0, watch: true, back: back0}, walker{route: route1, drop: true})
}

// TestSleepSetSoundOnMultiPort is the regression test for the footprint
// generalization (see independent): on multi-port substrates the
// sleep-set reduction must explore exactly the same distinct terminal
// configurations — and find exactly the same property violations — as a
// reduction-free reference search. The programs are deliberately racy,
// so a reduction that wrongly commutes dependent actions would lose a
// terminal (and with it a counterexample).
func TestSleepSetSoundOnMultiPort(t *testing.T) {
	biring, err := topo.NewBiRing(4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := embed.NewTree(4, [][2]int{{0, 1}, {1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topo.NewTorus(2, 3)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		setup Setup
	}{
		{
			// The agents reach node 2 over *different* links (a shared
			// link's FIFO would serialize them): agent 0 walks backward
			// 0→3→2, agent 1 forward 1→2, dropping its token there.
			// Whether agent 0 sees it decides its terminal (2 or 3).
			name: "biring",
			setup: Setup{
				Topology: biring,
				Homes:    []int{0, 1},
				Programs: racyPrograms([]int{1, 1}, []int{0}, 0),
			},
		},
		{
			// Star-ish tree 0-1, 1-2, 1-3: agent 0 enters hub 1 via edge
			// (0→1), agent 1 via edge (2→1) where it drops its token;
			// agent 0 doubles back to 0 iff it saw it.
			name: "tree",
			setup: Setup{
				Topology: tree.Topology(),
				Homes:    []int{0, 2},
				Programs: racyPrograms([]int{0}, []int{0}, 0),
			},
		},
		{
			// Torus 2x3: agent 0 goes east 0→1, agent 1 south 4→1 where
			// it drops its token; agent 0 jumps south to 4 iff it saw it.
			name: "torus",
			setup: Setup{
				Topology: torus,
				Homes:    []int{0, 4},
				Programs: racyPrograms([]int{0}, []int{1}, 1),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Benign property: both searches must agree the space is
			// race-bearing (>= 2 distinct terminals) and violation-free.
			setup := tc.setup
			setup.Property = func(sim.Result) string { return "" }
			with, without := searchBoth(t, setup, Options{})
			if !with.complete || !without.complete {
				t.Fatalf("incomplete search: with=%+v without=%+v", with, without)
			}
			if with.cexReason != "" || without.cexReason != "" {
				t.Fatalf("unexpected counterexample: with=%q without=%q", with.cexReason, without.cexReason)
			}
			if without.distinctTerminals < 2 {
				t.Fatalf("scenario not racy: only %d distinct terminals", without.distinctTerminals)
			}
			if with.distinctTerminals != without.distinctTerminals {
				t.Errorf("reduction lost terminals: %d with sleep sets, %d without",
					with.distinctTerminals, without.distinctTerminals)
			}

			// Discriminating property: flag agent 0's rarer terminal as a
			// violation, once per final node it can reach. The reduced
			// search must find every violation the reference search finds.
			finals := make(map[int]bool)
			probe := tc.setup
			probe.Property = func(res sim.Result) string {
				finals[res.Positions()[0]] = true
				return ""
			}
			if _, err := Explore(context.Background(), probe, Options{DisableReduction: true}); err != nil {
				t.Fatal(err)
			}
			for node := range finals {
				setup := tc.setup
				setup.Property = func(res sim.Result) string {
					if res.Positions()[0] == node {
						return fmt.Sprintf("agent 0 reached forbidden node %d", node)
					}
					return ""
				}
				with, without := searchBoth(t, setup, Options{})
				if (with.cexReason == "") != (without.cexReason == "") {
					t.Errorf("forbidden node %d: reduction disagrees with reference: with=%q without=%q",
						node, with.cexReason, without.cexReason)
				}
				if without.cexReason == "" {
					t.Errorf("forbidden node %d: reference search missed the violation", node)
				}
			}
		})
	}
}
