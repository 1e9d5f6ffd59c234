package agentring

import (
	"fmt"

	"agentring/internal/embed"
)

// Tree is an undirected tree network on nodes 0..n-1, the substrate of
// the paper's Section 5 extension: uniform deployment on trees by
// embedding the 2(n-1)-node Euler-tour virtual ring and running the
// ring algorithms on it.
type Tree struct {
	inner *embed.Tree
}

// NewTree validates the edge set (n-1 edges, connected, simple) and
// returns the tree.
func NewTree(n int, edges [][2]int) (*Tree, error) {
	t, err := embed.NewTree(n, edges)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return &Tree{inner: t}, nil
}

// NewSpanningTree reduces a connected general graph to a tree (the
// paper's reduction for arbitrary networks) and returns it.
func NewSpanningTree(n int, edges [][2]int) (*Tree, error) {
	st, err := embed.SpanningTree(n, edges)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return NewTree(n, st)
}

// Size returns the number of tree nodes.
func (t *Tree) Size() int { return t.inner.Size() }

// Coverage returns the worst and mean distance (in tree edges) from any
// node to the nearest agent — the service-quality measure of the
// paper's patrol/replica motivations.
func (t *Tree) Coverage(agents []int) (worst int, mean float64, err error) {
	worst, mean, err = t.inner.Coverage(agents)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return worst, mean, err
}

// TreeReport is the outcome of a tree deployment.
type TreeReport struct {
	// Ring is the underlying virtual-ring run report; Ring.Uniform is
	// exact uniformity on the 2(n-1)-node Euler ring.
	Ring Report
	// VirtualRingSize is 2(n-1).
	VirtualRingSize int
	// TreePositions are the agents' final tree nodes (the Euler
	// projection of their virtual positions). Two agents may project to
	// the same tree node — each tree edge appears twice on the tour — so
	// tree-level quality is judged by coverage, not exact uniformity.
	TreePositions []int
	// WorstCoverage / MeanCoverage are the tree Coverage statistics of
	// the final placement.
	WorstCoverage int
	MeanCoverage  float64
}

// RunOnTree deploys the agents starting at the given distinct tree
// nodes using the chosen ring algorithm on the Euler-tour virtual ring
// rooted at root. The virtual ring is passed to the engine as a
// first-class topology (NewTreeTopology), so the run flows through the
// same substrate layer as every other network shape. The Config's N,
// Topology and Homes fields are ignored (derived from the embedding);
// all other options apply.
func RunOnTree(alg Algorithm, t *Tree, root int, agentNodes []int, cfg Config) (TreeReport, error) {
	topo, err := NewTreeTopology(t, root)
	if err != nil {
		return TreeReport{}, err
	}
	homes, err := topo.TreeHomes(agentNodes)
	if err != nil {
		return TreeReport{}, err
	}
	cfg.N = 0
	cfg.Topology = topo
	cfg.Homes = homes
	ringReport, err := Run(alg, cfg)
	if err != nil {
		return TreeReport{}, err
	}
	treePos, err := topo.TreeNodes(ringReport.Positions)
	if err != nil {
		return TreeReport{}, err
	}
	worst, mean, err := t.inner.Coverage(treePos)
	if err != nil {
		return TreeReport{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return TreeReport{
		Ring:            ringReport,
		VirtualRingSize: topo.Size(),
		TreePositions:   treePos,
		WorstCoverage:   worst,
		MeanCoverage:    mean,
	}, nil
}
