package agentring

import (
	"fmt"
	"strconv"
	"strings"

	"agentring/internal/embed"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/topo"
)

// Topology kinds, as reported by Topology.Kind and accepted (with
// parameters) by ParseTopology.
const (
	KindRing   = "ring"
	KindBiRing = "biring"
	KindTorus  = "torus"
	KindTree   = "tree"
)

// Topology selects the network substrate of a run. The zero value is
// not usable; build one with NewRingTopology, NewBiRingTopology,
// NewTorusTopology, NewTreeTopology, or ParseTopology, and pass it via
// Config.Topology. A nil Config.Topology selects the paper's default,
// the unidirectional ring of Config.N nodes.
//
// Every shipped topology routes port 0 along a Hamiltonian cycle in
// node order — the ring itself, the bidirectional ring's forward
// direction, the Euler tour of a tree, and the twisted torus's east
// links — so the paper's port-0-only algorithms run unchanged on all of
// them and the ring uniformity predicate keeps its meaning.
type Topology struct {
	kind  string
	inner sim.Topology
	// emb is set for tree topologies: the Euler embedding projecting
	// virtual ring positions back to tree nodes.
	emb        *embed.Embedding
	tree       *Tree
	rows, cols int
}

// NewRingTopology returns the paper's unidirectional n-node ring — the
// substrate Run uses when Config.Topology is nil, made explicit.
func NewRingTopology(n int) (*Topology, error) {
	r, err := ring.New(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return &Topology{kind: KindRing, inner: r}, nil
}

// NewBiRingTopology returns an n-node bidirectional ring: port 0 is the
// forward link (so ring algorithms behave identically), port 1 the
// backward link (what BiNative shortcuts through).
func NewBiRingTopology(n int) (*Topology, error) {
	b, err := topo.NewBiRing(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return &Topology{kind: KindBiRing, inner: b}, nil
}

// NewTorusTopology returns a rows x cols unidirectional twisted torus
// in row-major numbering: port 0 ("east", wrapping into the next row at
// a row's end) forms a single Hamiltonian cycle, port 1 ("south") jumps
// to the same column of the next row. Ring algorithms deploy uniformly
// along the port-0 cycle.
func NewTorusTopology(rows, cols int) (*Topology, error) {
	t, err := topo.NewTorus(rows, cols)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return &Topology{kind: KindTorus, inner: t, rows: rows, cols: cols}, nil
}

// NewTreeTopology returns the tree's Euler-tour virtual ring rooted at
// root as an engine substrate: 2(n-1) virtual nodes numbered by tour
// position, each with the single out-port that traverses the tour's
// next directed tree edge. This is the Section 5 reduction as a
// first-class topology; RunOnTree is built on it.
func NewTreeTopology(t *Tree, root int) (*Topology, error) {
	if t == nil || t.inner == nil {
		return nil, fmt.Errorf("%w: nil tree", ErrConfig)
	}
	emb, err := embed.NewEmbedding(t.inner, root)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return &Topology{kind: KindTree, inner: emb.RingTopology(), emb: emb, tree: t}, nil
}

// ParseTopology builds a topology from a command-line style spec:
//
//	ring            unidirectional ring of n nodes
//	biring          bidirectional ring of n nodes
//	torus=RxC       R x C twisted torus (n ignored)
//	tree=0-1,1-2    tree with the given edge list, Euler-embedded
//	                rooted at node 0 (n ignored)
//
// n supplies the size for the ring families, whose specs carry none.
func ParseTopology(spec string, n int) (*Topology, error) {
	switch {
	case spec == KindRing || spec == "":
		return NewRingTopology(n)
	case spec == KindBiRing:
		return NewBiRingTopology(n)
	case strings.HasPrefix(spec, KindTorus+"="):
		dims := strings.SplitN(strings.TrimPrefix(spec, KindTorus+"="), "x", 2)
		if len(dims) != 2 {
			return nil, fmt.Errorf("%w: torus spec %q, want torus=RxC", ErrConfig, spec)
		}
		rows, err1 := strconv.Atoi(strings.TrimSpace(dims[0]))
		cols, err2 := strconv.Atoi(strings.TrimSpace(dims[1]))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: torus spec %q, want torus=RxC", ErrConfig, spec)
		}
		return NewTorusTopology(rows, cols)
	case strings.HasPrefix(spec, KindTree+"="):
		edges, nodes, err := parseEdgeList(strings.TrimPrefix(spec, KindTree+"="))
		if err != nil {
			return nil, err
		}
		t, err := NewTree(nodes, edges)
		if err != nil {
			return nil, err
		}
		return NewTreeTopology(t, 0)
	default:
		return nil, fmt.Errorf("%w: unknown topology %q (want ring | biring | torus=RxC | tree=<edges>)", ErrConfig, spec)
	}
}

// parseEdgeList parses "0-1,1-2,..." into an edge slice, inferring the
// node count as max endpoint + 1.
func parseEdgeList(s string) ([][2]int, int, error) {
	parts := strings.Split(s, ",")
	edges := make([][2]int, 0, len(parts))
	nodes := 0
	for _, p := range parts {
		ends := strings.SplitN(strings.TrimSpace(p), "-", 2)
		if len(ends) != 2 {
			return nil, 0, fmt.Errorf("%w: edge %q, want u-v", ErrConfig, p)
		}
		u, err1 := strconv.Atoi(ends[0])
		v, err2 := strconv.Atoi(ends[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, 0, fmt.Errorf("%w: edge %q, want u-v", ErrConfig, p)
		}
		edges = append(edges, [2]int{u, v})
		nodes = max(nodes, u+1, v+1)
	}
	return edges, nodes, nil
}

// Kind returns the topology family: ring, biring, torus, or tree.
func (t *Topology) Kind() string { return t.kind }

// Size returns the number of engine nodes — for trees, the 2(n-1)
// virtual ring positions, not the tree's own node count.
func (t *Topology) Size() int { return t.inner.Size() }

// String implements fmt.Stringer.
func (t *Topology) String() string {
	switch t.kind {
	case KindTorus:
		return fmt.Sprintf("torus(%dx%d)", t.rows, t.cols)
	case KindTree:
		return fmt.Sprintf("tree(%d nodes, euler ring %d)", t.tree.Size(), t.Size())
	default:
		return fmt.Sprintf("%s(%d)", t.kind, t.Size())
	}
}

// TreeHomes maps distinct tree nodes to their virtual-ring homes (the
// first Euler visit of each node). Tree topologies only.
func (t *Topology) TreeHomes(treeNodes []int) ([]int, error) {
	if t.kind != KindTree {
		return nil, fmt.Errorf("%w: TreeHomes on %s topology", ErrConfig, t.kind)
	}
	homes, err := t.emb.VirtualHomes(treeNodes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return homes, nil
}

// TreeNodes projects virtual-ring positions back to tree nodes. Tree
// topologies only.
func (t *Topology) TreeNodes(positions []int) ([]int, error) {
	if t.kind != KindTree {
		return nil, fmt.Errorf("%w: TreeNodes on %s topology", ErrConfig, t.kind)
	}
	nodes, err := t.emb.TreePositions(positions)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return nodes, nil
}

// Tree returns the underlying tree of a tree topology, or nil.
func (t *Topology) Tree() *Tree { return t.tree }
