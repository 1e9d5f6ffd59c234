package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/workload"
)

// terminalCollector is a Setup.Property that records every distinct
// terminal's agent position vector instead of judging it, letting a
// test compare the *set of outcomes* two searches reach. It is called
// from concurrent workers, hence the mutex.
type terminalCollector struct {
	mu  sync.Mutex
	set map[string]bool
}

func newTerminalCollector() *terminalCollector {
	return &terminalCollector{set: make(map[string]bool)}
}

func (tc *terminalCollector) property(res sim.Result) string {
	tc.mu.Lock()
	tc.set[fmt.Sprint(res.Positions())] = true
	tc.mu.Unlock()
	return ""
}

// sorted returns the collected position vectors in deterministic order.
func (tc *terminalCollector) sorted() []string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]string, 0, len(tc.set))
	for k := range tc.set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAdversaryCrossCheckBruteForce is the referee test pinning
// adversary soundness: for a budget-1 eventually-repaired adversary on
// Native (Algorithm 1), the set of terminal position vectors the
// adversary-mode search reaches must equal the union over the
// brute-force enumeration of every fixed FaultSchedule within that
// budget — one {fail edge at step s, repair at step s+w} timeline per
// (edge, s, w ≤ RepairWithin), plus the fault-free schedule. Both must
// in turn equal the static terminal set (an eventually-repaired
// adversary is invisible to the agents, so it adds no terminals), and
// the adversary search must report identically at workers 1 and 4.
func TestAdversaryCrossCheckBruteForce(t *testing.T) {
	const repairWithin = 2
	budget := &sim.AdversaryBudget{MaxConcurrent: 1, RepairWithin: repairWithin, MaxTotal: 1}
	cases := []struct {
		n     int
		homes []ring.NodeID
	}{
		{3, []ring.NodeID{0}},
		{3, []ring.NodeID{0, 1}},
		{3, []ring.NodeID{0, 2}},
		{3, []ring.NodeID{0, 1, 2}},
		{4, []ring.NodeID{0, 2}},
		{4, []ring.NodeID{0, 1}},
		{4, []ring.NodeID{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_homes%v", tc.n, tc.homes), func(t *testing.T) {
			factory := alg1Factory(len(tc.homes))

			// Static reference: the fault-free terminal set and the
			// deepest schedule (bounding when a fault can still matter).
			static := newTerminalCollector()
			srep, err := Explore(context.Background(),
				Setup{N: tc.n, Homes: tc.homes, Programs: factory, Property: static.property}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !srep.Complete || srep.Counterexample != nil {
				t.Fatalf("static search: complete=%v cex=%v", srep.Complete, srep.Counterexample)
			}
			want := static.sorted()

			// Adversary mode at workers 1 and 4: identical reports,
			// terminal set equal to the static one.
			var advReports []Report
			for _, workers := range []int{1, 4} {
				adv := newTerminalCollector()
				arep, err := Explore(context.Background(),
					Setup{N: tc.n, Homes: tc.homes, Programs: factory, Adversary: budget, Property: adv.property},
					Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !arep.Complete || arep.Counterexample != nil {
					t.Fatalf("workers=%d: adversary search complete=%v cex=%v", workers, arep.Complete, arep.Counterexample)
				}
				if got := adv.sorted(); !equalStrings(got, want) {
					t.Fatalf("workers=%d: adversary terminal positions %v, want static %v", workers, got, want)
				}
				advReports = append(advReports, arep)
			}
			if a, b := advReports[0], advReports[1]; a.States != b.States ||
				a.Terminals != b.Terminals || a.DistinctTerminals != b.DistinctTerminals ||
				a.Deepest != b.Deepest || a.Complete != b.Complete {
				t.Fatalf("adversary reports diverge across workers:\n  w1: %+v\n  w4: %+v", a, b)
			}

			// Brute force: enumerate every fixed single-outage timeline
			// within the budget. Fail steps range over the static search's
			// deepest schedule plus the repair window (later fails hit
			// quiesced runs and are no-ops); repair w actions later.
			brute := newTerminalCollector()
			for v := 0; v < tc.n; v++ {
				for s := 0; s <= srep.Deepest+repairWithin; s++ {
					for w := 1; w <= repairWithin; w++ {
						faults := sim.FaultSchedule{
							{Step: s, From: ring.NodeID(v), Port: 0, Up: false},
							{Step: s + w, From: ring.NodeID(v), Port: 0, Up: true},
						}
						frep, err := Explore(context.Background(),
							Setup{N: tc.n, Homes: tc.homes, Programs: factory, Faults: faults, Property: brute.property},
							Options{})
						if err != nil {
							t.Fatalf("faults %v: %v", faults, err)
						}
						if !frep.Complete || frep.Counterexample != nil {
							t.Fatalf("faults %v: complete=%v cex=%v", faults, frep.Complete, frep.Counterexample)
						}
					}
				}
			}
			// The fault-free timeline is part of the enumeration.
			if _, err := Explore(context.Background(),
				Setup{N: tc.n, Homes: tc.homes, Programs: factory, Property: brute.property}, Options{}); err != nil {
				t.Fatal(err)
			}
			if got := brute.sorted(); !equalStrings(got, want) {
				t.Fatalf("brute-force terminal positions %v, want static %v", got, want)
			}
		})
	}
}

// TestAdversaryReductionAndModeConsistency re-argues the searches'
// reductions under the online adversary by cross-checking every
// combination that must agree: sleep sets on vs off, sequential vs
// parallel. All must report the same state count, terminal counts,
// verdict and coverage — and agree with the from-root referee, which
// reaches every state by replay with no checkpoints, cache subsumption
// or sleep sets.
func TestAdversaryReductionAndModeConsistency(t *testing.T) {
	budget := &sim.AdversaryBudget{MaxConcurrent: 2, RepairWithin: 2, MaxTotal: 2}
	setups := []struct {
		n     int
		homes []ring.NodeID
	}{
		{3, []ring.NodeID{0, 1}},
		{4, []ring.NodeID{0, 2}},
		{4, []ring.NodeID{0, 1, 2}},
	}
	for _, sc := range setups {
		sc := sc
		t.Run(fmt.Sprintf("n%d_homes%v", sc.n, sc.homes), func(t *testing.T) {
			setup := Setup{N: sc.n, Homes: sc.homes, Programs: alg1Factory(len(sc.homes)), Adversary: budget}
			variants := []struct {
				name string
				opts Options
			}{
				{"baseline", Options{}},
				{"no-reduction", Options{DisableReduction: true}},
				{"workers4", Options{Workers: 4}},
			}
			ref := fromRootReferee(t, setup)
			var base Report
			for i, v := range variants {
				rep, err := Explore(context.Background(), setup, v.opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if rep.Counterexample != nil {
					t.Fatalf("%s: unexpected counterexample:\n%s", v.name, rep.Counterexample)
				}
				if !rep.Complete {
					t.Fatalf("%s: incomplete search", v.name)
				}
				checkAgainstReferee(t, v.name, rep, ref)
				if i == 0 {
					base = rep
					continue
				}
				if rep.States != base.States || rep.DistinctTerminals != base.DistinctTerminals ||
					rep.Terminals != base.Terminals || rep.Deepest != base.Deepest {
					t.Fatalf("%s diverges from baseline:\n  base: %+v\n  got:  %+v", v.name, base, rep)
				}
			}
		})
	}
}

// TestAdversaryCounterexampleDeterministic pins that a breaking
// adversary search reports the same canonical counterexample for every
// worker count, with adversary moves rendered in the schedule listing
// when they occur. NaiveHalting on the pumped ring is the known
// breaking instance (Theorem 5); it breaks without faults, so the
// lexicographically least counterexample is fault-free — the adversary
// search must converge on exactly the static one.
func TestAdversaryCounterexampleDeterministic(t *testing.T) {
	n, homes, err := workload.Pumped(1, []ring.NodeID{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	budget := &sim.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3, MaxTotal: 1}
	static, err := Explore(context.Background(),
		Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if static.Counterexample == nil {
		t.Fatal("static naive search found no counterexample")
	}
	var first *Counterexample
	for _, opts := range []Options{{}, {Workers: 4}} {
		rep, err := Explore(context.Background(),
			Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes)), Adversary: budget}, opts)
		if err != nil {
			t.Fatal(err)
		}
		cex := rep.Counterexample
		if cex == nil {
			t.Fatalf("opts %+v: no counterexample", opts)
		}
		if first == nil {
			first = cex
			continue
		}
		if fmt.Sprint(cex.Prefix) != fmt.Sprint(first.Prefix) || cex.Reason != first.Reason {
			t.Fatalf("counterexample diverges across worker counts:\n  first: %v %s\n  got:   %v %s",
				first.Prefix, first.Reason, cex.Prefix, cex.Reason)
		}
	}
	if fmt.Sprint(first.Prefix) != fmt.Sprint(static.Counterexample.Prefix) {
		t.Fatalf("adversary counterexample %v is not the static canonical one %v",
			first.Prefix, static.Counterexample.Prefix)
	}
}

// TestAdversaryCexRendersFaultMoves drives a schedule containing
// adversary moves through Counterexample.String and checks the fail and
// repair verbs appear — the listing must stay replayable-by-eye when
// fault events interleave with agent actions.
func TestAdversaryCexRendersFaultMoves(t *testing.T) {
	cex := &Counterexample{
		Prefix: []int{2, 0, 1},
		Schedule: []sim.Choice{
			{Kind: sim.ChoiceFail, Agent: -1, Node: 1, Edge: 2},
			{Kind: sim.ChoiceArrival, Agent: 0, Node: 2, Edge: 2},
			{Kind: sim.ChoiceRepair, Agent: -1, Node: 1, Edge: 2},
		},
		Reason: "test",
	}
	s := cex.String()
	if !strings.Contains(s, "adversary fails the link leaving node 1 (edge rank 2)") {
		t.Fatalf("fail move not rendered:\n%s", s)
	}
	if !strings.Contains(s, "adversary repairs the link leaving node 1 (edge rank 2)") {
		t.Fatalf("repair move not rendered:\n%s", s)
	}
}

// TestAdversaryExcludesFixedFaults pins the mutual-exclusion check.
func TestAdversaryExcludesFixedFaults(t *testing.T) {
	_, err := Explore(context.Background(), Setup{
		N: 3, Homes: []ring.NodeID{0}, Programs: alg1Factory(1),
		Faults:    sim.FaultSchedule{{Step: 1, From: 0}},
		Adversary: &sim.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 1},
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion setup error", err)
	}
}
