package ring

import (
	"errors"
	"fmt"
)

// NodeID identifies a node by its index v_i in the canonical numbering
// v_0 .. v_{n-1}. Nodes are anonymous to agents: algorithms never see a
// NodeID; the identifier exists only for the simulator and tests.
type NodeID int

var (
	// ErrTooSmall is returned when a ring of fewer than one node is requested.
	ErrTooSmall = errors.New("ring: size must be at least 1")
)

// Ring is an n-node unidirectional ring. It is pure geometry: token
// counts, like every other part of a configuration, are engine state
// (internal/sim).
type Ring struct {
	n int
}

// New creates a ring of n nodes.
func New(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrTooSmall, n)
	}
	return &Ring{n: n}, nil
}

// MustNew is New for callers with statically valid sizes (tests, examples).
// It panics on invalid input, which is acceptable only at program
// initialization per the style guide.
func MustNew(n int) *Ring {
	r, err := New(n)
	if err != nil {
		panic(err)
	}
	return r
}

// Size returns n, the number of nodes.
func (r *Ring) Size() int { return r.n }

// Degree returns the out-degree of v. A unidirectional ring has exactly
// one outgoing link per node, which makes *Ring the port-0-only instance
// of the simulator's Topology interface.
func (r *Ring) Degree(NodeID) int { return 1 }

// Neighbor returns the node reached from v via the given out-port. The
// only port of a unidirectional ring is 0, the forward link to
// (v+1) mod n (the only direction agents can move in).
func (r *Ring) Neighbor(v NodeID, port int) NodeID {
	if port != 0 {
		return -1 // rejected by the engine's edge validation
	}
	return NodeID((int(v) + 1) % r.n)
}

// DistanceSequence returns the gaps between consecutive occupied
// positions starting from positions[0], given a set of distinct node
// positions in strictly increasing ring order from some origin. It is a
// convenience for building the distance sequence of an initial
// configuration.
func DistanceSequence(n int, positions []NodeID) ([]int, error) {
	k := len(positions)
	if k == 0 {
		return nil, errors.New("ring: no positions")
	}
	seen := make(map[NodeID]bool, k)
	for _, p := range positions {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("ring: position %d out of range [0,%d)", p, n)
		}
		if seen[p] {
			return nil, fmt.Errorf("ring: duplicate position %d", p)
		}
		seen[p] = true
	}
	// Walk the ring from positions[0] forward, collecting occupied nodes
	// in ring order.
	ordered := make([]NodeID, 0, k)
	for step := 0; step < n; step++ {
		v := NodeID((int(positions[0]) + step) % n)
		if seen[v] {
			ordered = append(ordered, v)
		}
	}
	gaps := make([]int, k)
	for i := range ordered {
		next := ordered[(i+1)%k]
		gap := (int(next) - int(ordered[i]) + n) % n
		if gap == 0 { // single agent: full circle
			gap = n
		}
		gaps[i] = gap
	}
	return gaps, nil
}
