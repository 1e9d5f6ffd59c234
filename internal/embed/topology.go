package embed

// TreeTopology exposes a Tree as a native engine substrate (an instance
// of the simulator's Topology interface): node v has one bidirectional
// port per incident tree edge, numbered in sorted-neighbor order, so
// every directed tree edge is its own FIFO link. Port-local traversal
// rules (the Euler tour an agent realizes by leaving via the port after
// its arrival port, cyclically) are expressible against it through the
// engine's ArrivalPort and port-addressed moves (sim.ActionMove).
//
// Note the deployment algorithms themselves still run on the Euler-tour
// virtual ring (RingTopology): tokens released at a tree node are
// visible at *every* Euler visit of that node, which would break the
// gap arithmetic if a ring program ran on the raw tree. TreeTopology is
// the substrate for tree-native workloads (patrols, coverage walks) and
// for exercising the engine and model checker on irregular multi-port
// graphs.
type TreeTopology struct {
	t *Tree
}

// Topology returns the tree's native multi-port substrate.
func (t *Tree) Topology() *TreeTopology { return &TreeTopology{t: t} }

// Size implements the simulator's Topology interface.
func (tt *TreeTopology) Size() int { return tt.t.n }

// Degree implements the simulator's Topology interface.
func (tt *TreeTopology) Degree(v int) int { return len(tt.t.adj[v]) }

// Neighbor implements the simulator's Topology interface.
func (tt *TreeTopology) Neighbor(v, port int) int {
	nb := tt.t.adj[v]
	if port < 0 || port >= len(nb) {
		return -1
	}
	return nb[port]
}

// EulerRing is the embedding's virtual ring as an engine substrate:
// node i is the i-th position of the Euler tour (so numbering, homes,
// and reports coincide exactly with the historical virtual-ring
// encoding), and the single out-port of position i leads to the
// position reached by traversing the tour's next directed tree edge.
// Running a ring algorithm on it is the Section 5 reduction executed
// end-to-end through the real engine's topology layer.
type EulerRing struct {
	next []int
}

// RingTopology returns the virtual-ring substrate of the embedding.
func (e *Embedding) RingTopology() *EulerRing {
	n := len(e.Tour)
	next := make([]int, n)
	for i := range next {
		next[i] = (i + 1) % n
	}
	return &EulerRing{next: next}
}

// Size implements the simulator's Topology interface.
func (er *EulerRing) Size() int { return len(er.next) }

// Degree implements the simulator's Topology interface.
func (er *EulerRing) Degree(int) int { return 1 }

// Neighbor implements the simulator's Topology interface.
func (er *EulerRing) Neighbor(v, port int) int {
	if port != 0 {
		return -1
	}
	return er.next[v]
}
