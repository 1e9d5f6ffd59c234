package topo

import (
	"errors"
	"fmt"
	"math"

	"agentring/internal/ring"
)

// ErrBadShape rejects impossible substrate dimensions.
var ErrBadShape = errors.New("topo: invalid shape")

// BiRing is an n-node bidirectional ring: port 0 is the forward
// (clockwise) link of the unidirectional ring, port 1 the backward
// link. Port-0-only programs therefore behave exactly as they do on
// ring.Ring; bidirectional algorithms may shortcut via port 1.
type BiRing struct {
	n int
}

// NewBiRing returns a bidirectional ring of n nodes.
func NewBiRing(n int) (*BiRing, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: ring size %d", ErrBadShape, n)
	}
	return &BiRing{n: n}, nil
}

// Size implements sim.Topology.
func (b *BiRing) Size() int { return b.n }

// Degree implements sim.Topology: every node has a forward and a
// backward link.
func (b *BiRing) Degree(ring.NodeID) int { return 2 }

// Neighbor implements sim.Topology.
func (b *BiRing) Neighbor(v ring.NodeID, port int) ring.NodeID {
	switch port {
	case 0:
		return ring.NodeID((int(v) + 1) % b.n)
	case 1:
		return ring.NodeID((int(v) - 1 + b.n) % b.n)
	default:
		return -1
	}
}

// Torus is a rows x cols unidirectional twisted torus in row-major
// numbering (node r*cols+c is row r, column c):
//
//   - port 0 ("east") advances along the row, and at the end of a row
//     wraps into the start of the next row — so the port-0 links form a
//     single Hamiltonian cycle visiting all rows*cols nodes in
//     row-major order. Ring algorithms that only ever call Move()
//     deploy uniformly along this cycle, which is why the ring
//     uniformity predicate remains meaningful on the torus.
//   - port 1 ("south") jumps to the same column of the next row
//     (wrapping from the last row to the first), a cols-length chord
//     of the port-0 cycle. It gives the substrate genuine multi-port
//     structure — distinct per-edge FIFO queues into every node — and
//     is the shortcut a future torus-aware deployment variant can
//     exploit.
type Torus struct {
	rows, cols int
}

// NewTorus returns a rows x cols twisted torus. Its node count
// rows*cols must fit an int.
func NewTorus(rows, cols int) (*Torus, error) {
	if rows < 1 || cols < 1 || rows > math.MaxInt/cols {
		return nil, fmt.Errorf("%w: torus %dx%d", ErrBadShape, rows, cols)
	}
	return &Torus{rows: rows, cols: cols}, nil
}

// Rows returns the number of rows.
func (t *Torus) Rows() int { return t.rows }

// Cols returns the number of columns.
func (t *Torus) Cols() int { return t.cols }

// Size implements sim.Topology.
func (t *Torus) Size() int { return t.rows * t.cols }

// Degree implements sim.Topology.
func (t *Torus) Degree(ring.NodeID) int { return 2 }

// Neighbor implements sim.Topology.
func (t *Torus) Neighbor(v ring.NodeID, port int) ring.NodeID {
	n := t.rows * t.cols
	switch port {
	case 0: // east, wrapping into the next row at row's end
		return ring.NodeID((int(v) + 1) % n)
	case 1: // south: same column, next row
		return ring.NodeID((int(v) + t.cols) % n)
	default:
		return -1
	}
}
