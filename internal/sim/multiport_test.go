package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"agentring/internal/embed"
	"agentring/internal/reference"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/topo"
)

// mustBiRing is a test helper.
func mustBiRing(t *testing.T, n int) *topo.BiRing {
	t.Helper()
	b, err := topo.NewBiRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMoveViaInvalidPortFailsAgent(t *testing.T) {
	bad := reference.Program(t, func(api reference.API) error {
		api.MoveVia(1) // the ring has only port 0
		return nil
	})
	e, err := sim.NewEngine(ring.MustNew(4), []int{0}, []sim.Program{bad}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "out-degree") {
		t.Fatalf("Run error = %v, want invalid-port program failure", err)
	}
}

func TestBiRingZigzagAndArrivalPort(t *testing.T) {
	// Walk forward then backward twice; check OutDegree and that
	// ArrivalPort always names the port leading back where we came from
	// (forward arrival ⇒ back-port 1, backward arrival ⇒ back-port 0).
	prog := reference.Program(t, func(api reference.API) error {
		if api.ArrivalPort() != -1 {
			return fmt.Errorf("initial ArrivalPort = %d, want -1", api.ArrivalPort())
		}
		if api.OutDegree() != 2 {
			return fmt.Errorf("OutDegree = %d, want 2", api.OutDegree())
		}
		for i := 0; i < 2; i++ {
			api.Move() // forward
			if got := api.ArrivalPort(); got != 1 {
				return fmt.Errorf("after forward move, ArrivalPort = %d, want 1", got)
			}
			api.MoveVia(1) // backward, returning
			if got := api.ArrivalPort(); got != 0 {
				return fmt.Errorf("after backward move, ArrivalPort = %d, want 0", got)
			}
		}
		return nil
	})
	e, err := sim.NewEngine(mustBiRing(t, 5), []int{2}, []sim.Program{prog}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[0].Node != 2 || res.Agents[0].Moves != 4 {
		t.Errorf("zigzag ended at %d after %d moves, want home 2 after 4", res.Agents[0].Node, res.Agents[0].Moves)
	}
}

// TestRotorWalkTraversesTreeEulerCircuit runs a port-local rotor walker
// ("leave via the port after the one you arrived by") on a native tree
// topology: after exactly 2(n-1) moves it must have visited every node
// and be back home — the Euler-tour property the Section 5 embedding is
// built on, realized by an anonymous agent through MoveVia/ArrivalPort.
func TestRotorWalkTraversesTreeEulerCircuit(t *testing.T) {
	tree, err := embed.NewTree(7, [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	n := tree.Size()
	rotor := reference.Program(t, func(api reference.API) error {
		for i := 0; i < 2*(n-1); i++ {
			next := 0 // first departure: port 0
			if p := api.ArrivalPort(); p >= 0 {
				next = (p + 1) % api.OutDegree()
			}
			api.MoveVia(next)
		}
		return nil
	})
	visited := make(map[int]bool)
	obs := func(cfg sim.Configuration) {
		for v, q := range cfg.InTransit {
			if len(q) > 0 {
				visited[v] = true
			}
		}
	}
	e, err := sim.NewEngine(tree.Topology(), []int{0}, []sim.Program{rotor}, sim.Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[0].Node != 0 {
		t.Errorf("rotor walk ended at %d, want root 0", res.Agents[0].Node)
	}
	if res.Agents[0].Moves != 2*(n-1) {
		t.Errorf("rotor walk made %d moves, want %d", res.Agents[0].Moves, 2*(n-1))
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			t.Errorf("rotor walk never headed toward node %d", v)
		}
	}
}

// TestPerEdgeQueuesAreIndependent drives two agents into the same node
// over different links and checks both arrivals are independently
// enabled — the per-directed-edge FIFO generalization (a single
// per-node queue would serialize them behind one head).
func TestPerEdgeQueuesAreIndependent(t *testing.T) {
	fwd := reference.Program(t, func(api reference.API) error { api.Move(); return nil })
	bwd := reference.Program(t, func(api reference.API) error { api.MoveVia(1); return nil })
	// Agents at 0 and 2 both move into node 1 (forward resp. backward):
	// decision 0 starts agent 0, decision 1 starts agent 1 (its home
	// activation sits at index 1 of the merged choice list).
	ctrl := sim.NewControlled([]int{0, 1})
	e, err := sim.NewEngine(mustBiRing(t, 3), []int{0, 2}, []sim.Program{fwd, bwd}, sim.Options{Scheduler: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// After both initial activations the third decision point must offer
	// both arrivals at node 1, on distinct edges.
	if len(ctrl.Record) != 3 {
		t.Fatalf("recorded %d decision points, want 3", len(ctrl.Record))
	}
	last := ctrl.Record[2]
	if len(last) != 2 {
		t.Fatalf("enabled choices = %v, want two simultaneous arrivals at node 1", last)
	}
	for _, c := range last {
		if c.Kind != sim.ChoiceArrival || c.Node != 1 {
			t.Errorf("choice %+v, want arrival at node 1", c)
		}
	}
	if last[0].Edge == last[1].Edge {
		t.Errorf("both arrivals share edge %d, want distinct per-edge queues", last[0].Edge)
	}
	if last[0].Agent == last[1].Agent {
		t.Errorf("both arrivals belong to agent %d", last[0].Agent)
	}
}

// TestHomeBufferBlocksMultiPortVisitors regression-tests the
// initial-configuration guarantee on multi-in-degree topologies: a
// visitor must not act at a node whose resident has not taken its first
// atomic action, even when it arrives on a different link than the one
// the resident's buffer shadows on the ring. (Found by the schedule
// explorer: without the explicit home buffer, a forward walker on a
// bidirectional ring could slip past an unstarted agent's home and miss
// its token.)
func TestHomeBufferBlocksMultiPortVisitors(t *testing.T) {
	resident := reference.Program(t, func(api reference.API) error {
		api.ReleaseToken()
		return nil
	})
	visitor := reference.Program(t, func(api reference.API) error {
		api.Move() // 1 -> 2
		api.Move() // 2 -> 0
		if api.TokensHere() == 0 {
			return fmt.Errorf("visitor reached node 0 before the resident's token")
		}
		return nil
	})
	// A scheduler that always prefers the visitor (agent 1): the
	// strongest attempt to race it past agent 0's home.
	prefer := pickFunc(func(choices []sim.Choice) int {
		for i, c := range choices {
			if c.Agent == 1 {
				return i
			}
		}
		return 0
	})
	e, err := sim.NewEngine(mustBiRing(t, 3), []int{0, 1}, []sim.Program{resident, visitor}, sim.Options{Scheduler: prefer})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("home-first guarantee violated: %v", err)
	}
}

// pickFunc adapts a pick function to the sim.Scheduler interface.
type pickFunc func(choices []sim.Choice) int

// Pick implements sim.Scheduler.
func (f pickFunc) Pick(_ int, choices []sim.Choice) int { return f(choices) }
