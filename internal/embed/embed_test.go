package embed

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// path returns the edge list of a path tree 0-1-2-...-(n-1).
func path(n int) [][2]int {
	edges := make([][2]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edges
}

// star returns the edge list of a star with center 0.
func star(n int) [][2]int {
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return edges
}

// randomTree attaches each node i>0 to a uniformly random earlier node.
func randomTree(n int, rng *rand.Rand) [][2]int {
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i})
	}
	return edges
}

func TestNewTreeValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		want  error
	}{
		{"zero nodes", 0, nil, ErrBadNode},
		{"wrong edge count", 3, [][2]int{{0, 1}}, ErrNotATree},
		{"self loop", 2, [][2]int{{1, 1}}, ErrNotATree},
		{"duplicate edge", 3, [][2]int{{0, 1}, {1, 0}}, ErrNotATree},
		{"out of range", 2, [][2]int{{0, 5}}, ErrBadNode},
		{"disconnected", 4, [][2]int{{0, 1}, {2, 3}, {0, 1}}, ErrNotATree},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewTree(c.n, c.edges); !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
	if _, err := NewTree(1, nil); err != nil {
		t.Errorf("single node tree: %v", err)
	}
}

func TestEulerTourPath(t *testing.T) {
	tree, err := NewTree(4, path(4))
	if err != nil {
		t.Fatal(err)
	}
	tour, err := tree.EulerTour(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 2, 1}
	if !reflect.DeepEqual(tour, want) {
		t.Errorf("tour = %v, want %v", tour, want)
	}
}

func TestEulerTourStar(t *testing.T) {
	tree, err := NewTree(4, star(4))
	if err != nil {
		t.Fatal(err)
	}
	tour, err := tree.EulerTour(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 2, 0, 3}
	if !reflect.DeepEqual(tour, want) {
		t.Errorf("tour = %v, want %v", tour, want)
	}
}

func TestEulerTourErrors(t *testing.T) {
	tree, err := NewTree(3, path(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.EulerTour(9); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad root err = %v", err)
	}
	single, err := NewTree(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.EulerTour(0); !errors.Is(err, ErrTooSmall) {
		t.Errorf("single-node tour err = %v", err)
	}
}

func TestEulerTourProperties(t *testing.T) {
	// For random trees: length 2(n-1), consecutive entries adjacent
	// (cyclically), every node visited, each edge crossed exactly twice.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		edges := randomTree(n, rng)
		tree, err := NewTree(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		root := rng.Intn(n)
		tour, err := tree.EulerTour(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(tour) != 2*(n-1) {
			t.Fatalf("n=%d: tour length %d", n, len(tour))
		}
		if tour[0] != root {
			t.Fatalf("tour starts at %d, want root %d", tour[0], root)
		}
		edgeUse := make(map[[2]int]int)
		visited := make(map[int]bool)
		for i, v := range tour {
			visited[v] = true
			w := tour[(i+1)%len(tour)]
			adjacent := false
			nb, err := tree.Neighbors(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range nb {
				if x == w {
					adjacent = true
					break
				}
			}
			if !adjacent {
				t.Fatalf("tour step %d: %d and %d not adjacent", i, v, w)
			}
			edgeUse[[2]int{min(v, w), max(v, w)}]++
		}
		if len(visited) != n {
			t.Fatalf("tour visits %d of %d nodes", len(visited), n)
		}
		for e, c := range edgeUse {
			if c != 2 {
				t.Fatalf("edge %v crossed %d times, want 2", e, c)
			}
		}
	}
}

func TestEmbeddingVirtualHomes(t *testing.T) {
	tree, err := NewTree(5, path(5))
	if err != nil {
		t.Fatal(err)
	}
	emb, err := NewEmbedding(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if emb.RingSize() != 8 {
		t.Fatalf("ring size = %d, want 8", emb.RingSize())
	}
	homes, err := emb.VirtualHomes([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Tour of the path: 0,1,2,3,4,3,2,1 — first visits 0->0, 2->2, 4->4.
	if want := []int{0, 2, 4}; !reflect.DeepEqual(homes, want) {
		t.Errorf("homes = %v, want %v", homes, want)
	}
	if _, err := emb.VirtualHomes([]int{1, 1}); !errors.Is(err, ErrDuplicates) {
		t.Errorf("duplicate err = %v", err)
	}
	if _, err := emb.VirtualHomes([]int{9}); !errors.Is(err, ErrBadNode) {
		t.Errorf("range err = %v", err)
	}
}

func TestEmbeddingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		tree, err := NewTree(n, randomTree(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		emb, err := NewEmbedding(tree, rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(n)
		nodes := rng.Perm(n)[:k]
		homes, err := emb.VirtualHomes(nodes)
		if err != nil {
			t.Fatal(err)
		}
		// Homes must be distinct virtual positions that project back to
		// the original tree nodes.
		seen := make(map[int]bool)
		back, err := emb.TreePositions(homes)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range homes {
			if seen[h] {
				t.Fatalf("duplicate virtual home %d", h)
			}
			seen[h] = true
			if back[i] != nodes[i] {
				t.Fatalf("round trip: virtual %d -> %d, want %d", h, back[i], nodes[i])
			}
		}
	}
}

func TestTreePositionsRange(t *testing.T) {
	tree, err := NewTree(3, path(3))
	if err != nil {
		t.Fatal(err)
	}
	emb, err := NewEmbedding(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emb.TreePositions([]int{99}); !errors.Is(err, ErrBadNode) {
		t.Errorf("err = %v, want ErrBadNode", err)
	}
}

func TestCoverage(t *testing.T) {
	tree, err := NewTree(5, path(5))
	if err != nil {
		t.Fatal(err)
	}
	worst, mean, err := tree.Coverage([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if worst != 4 {
		t.Errorf("worst = %d, want 4", worst)
	}
	if mean != 2.0 {
		t.Errorf("mean = %v, want 2", mean)
	}
	worst, mean, err = tree.Coverage([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if worst != 2 {
		t.Errorf("worst with both ends = %d, want 2", worst)
	}
	// A repeated node seeds the search once: [0,0,4] reads as [0,4].
	if w, m, err := tree.Coverage([]int{0, 0, 4}); err != nil || w != worst || m != mean {
		t.Errorf("[0,0,4] reads worst %d mean %v (err %v), [0,4] worst %d mean %v", w, m, err, worst, mean)
	}
	if _, _, err := tree.Coverage(nil); err == nil {
		t.Error("no agents must error")
	}
	if _, _, err := tree.Coverage([]int{77}); err == nil {
		t.Error("out-of-range agent must error")
	}
}

func TestSpanningTree(t *testing.T) {
	// A 4-cycle with a chord.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	st, err := SpanningTree(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 3 {
		t.Fatalf("spanning tree has %d edges, want 3", len(st))
	}
	if _, err := NewTree(4, st); err != nil {
		t.Fatalf("spanning tree output is not a tree: %v", err)
	}
	if _, err := SpanningTree(4, [][2]int{{0, 1}}); !errors.Is(err, ErrNotATree) {
		t.Errorf("disconnected err = %v", err)
	}
	if _, err := SpanningTree(2, [][2]int{{0, 9}}); !errors.Is(err, ErrBadNode) {
		t.Errorf("range err = %v", err)
	}
}

func TestSpanningTreeQuick(t *testing.T) {
	f := func(nRaw uint8, extra []uint8) bool {
		n := int(nRaw%20) + 2
		// Start from a path (connected), add random extra edges.
		edges := path(n)
		for i := 0; i+1 < len(extra); i += 2 {
			edges = append(edges, [2]int{int(extra[i]) % n, int(extra[i+1]) % n})
		}
		st, err := SpanningTree(n, edges)
		if err != nil {
			return false
		}
		_, err = NewTree(n, st)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
