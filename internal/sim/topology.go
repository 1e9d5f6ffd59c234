package sim

import "fmt"

// Topology is the static substrate an Engine runs on: a finite directed
// graph given by node count, per-node out-degree, and a port-indexed
// neighbor map. Nodes are ints in the canonical 0..n-1 numbering;
// ports number a node's outgoing links 0..Degree-1.
//
// Implementations must be immutable once handed to an engine: the
// engine materializes the whole edge set at construction (so the
// steady-state stepping loop performs no interface calls and stays
// allocation-free regardless of the implementation), and replay-driven
// tools share one Topology value across many engines.
//
// *ring.Ring is the canonical out-degree-1 instance; internal/topo
// provides multi-port instances (bidirectional rings, tori, trees).
type Topology interface {
	// Size returns n, the number of nodes.
	Size() int
	// Degree returns the out-degree of v (the number of ports).
	Degree(v int) int
	// Neighbor returns the head of v's port-th outgoing link. It is
	// consulted only for 0 <= port < Degree(v).
	Neighbor(v, port int) int
}

// edgeTable is the engine's flattened, validated form of a Topology:
// every directed edge gets a dense id ordered by (source, port), and a
// *rank* — its position in the arrival ordering the schedulers are
// specified against: edges sorted by (destination, edge id) ascending.
// On an in-degree-1 topology (the unidirectional ring) rank r is
// exactly the single edge toward node r, which keeps the enabled-choice
// order — and therefore every golden trace — identical to the
// pre-topology engine.
//
// The engine's link FIFOs and enabled-choice scan are indexed by rank,
// so the hot loop reads rank-parallel arrays with no eid indirection;
// edge ids appear only on the move path (source-port arithmetic) and
// are translated via rank[] once per move.
type edgeTable struct {
	n       int
	start   []int32 // per node: first out-edge id (len n+1; prefix sums)
	inStart []int32 // per node: first arrival rank into it (len n+1; prefix sums)
	dest    []int32 // per edge id: destination node
	rank    []int32 // per edge id: arrival rank
	// Rank-parallel views of the edge set, hot-loop friendly.
	rankDest []int32 // per rank: destination node
	rankRev  []int32 // per rank, for edge u->v: port at v back to u, or -1
}

// buildEdgeTable materializes and validates a Topology.
func buildEdgeTable(t Topology) (*edgeTable, error) {
	n := t.Size()
	if n < 1 {
		return nil, fmt.Errorf("%w: topology size %d", ErrBadSetup, n)
	}
	et := &edgeTable{n: n, start: make([]int32, n+1)}
	m := 0
	for v := 0; v < n; v++ {
		d := t.Degree(v)
		if d < 0 {
			return nil, fmt.Errorf("%w: node %d has out-degree %d", ErrBadSetup, v, d)
		}
		et.start[v] = int32(m)
		m += d
	}
	et.start[n] = int32(m)
	et.dest = make([]int32, m)
	for v := 0; v < n; v++ {
		for p := 0; int32(p) < et.start[v+1]-et.start[v]; p++ {
			w := t.Neighbor(v, p)
			if w < 0 || w >= n {
				return nil, fmt.Errorf("%w: neighbor(%d, %d) = %d out of range", ErrBadSetup, v, p, w)
			}
			et.dest[et.start[v]+int32(p)] = int32(w)
		}
	}
	// Arrival ranks: counting sort of edges by (dest, edge id).
	et.inStart = make([]int32, n+1)
	for _, w := range et.dest {
		et.inStart[w+1]++
	}
	for v := 0; v < n; v++ {
		et.inStart[v+1] += et.inStart[v]
	}
	et.rank = make([]int32, m)
	et.rankDest = make([]int32, m)
	et.rankRev = make([]int32, m)
	fill := append([]int32(nil), et.inStart[:n]...)
	for e := 0; e < m; e++ {
		w := et.dest[e]
		r := fill[w]
		fill[w]++
		et.rank[e] = r
		et.rankDest[r] = w
	}
	// Reverse ports: for edge u->v, the port at v whose head is u (the
	// first such port when parallel links exist). -1 when v has no link
	// back to u (e.g. the unidirectional ring for n > 1).
	for u := 0; u < n; u++ {
		for e := et.start[u]; e < et.start[u+1]; e++ {
			v := et.dest[e]
			rev := int32(-1)
			for q := et.start[v]; q < et.start[v+1]; q++ {
				if et.dest[q] == int32(u) {
					rev = q - et.start[v]
					break
				}
			}
			et.rankRev[et.rank[e]] = rev
		}
	}
	return et, nil
}

// RankSources returns, for every arrival rank, the tail node of that
// directed edge, in exactly the flattening an Engine of t uses. An
// arrival Choice identifies the link FIFO it pops by rank (Choice.Edge),
// so sources[c.Edge] is the node whose out-link the arrival drains,
// while the acting node itself is c.Node. Replay-driven tools use this
// to reason about which queues an atomic action can touch — the
// schedule explorer's per-directed-edge independence relation is built
// on it — without re-deriving the engine's edge numbering.
func RankSources(t Topology) ([]int32, error) {
	et, err := buildEdgeTable(t)
	if err != nil {
		return nil, err
	}
	sources := make([]int32, et.edges())
	for v := 0; v < et.n; v++ {
		for e := et.start[v]; e < et.start[v+1]; e++ {
			sources[et.rank[e]] = int32(v)
		}
	}
	return sources, nil
}

// edges returns the number of directed edges.
func (et *edgeTable) edges() int { return len(et.dest) }

// outDegree returns the out-degree of v.
func (et *edgeTable) outDegree(v int) int {
	return int(et.start[v+1] - et.start[v])
}
