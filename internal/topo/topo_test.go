package topo

import (
	"testing"

	"agentring/internal/ring"
)

func TestBiRingNeighbors(t *testing.T) {
	if _, err := NewBiRing(0); err == nil {
		t.Fatal("expected error for empty biring")
	}
	b, err := NewBiRing(5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 5 {
		t.Errorf("size = %d", b.Size())
	}
	for v := 0; v < 5; v++ {
		if d := b.Degree(ring.NodeID(v)); d != 2 {
			t.Errorf("degree(%d) = %d", v, d)
		}
		fwd := b.Neighbor(ring.NodeID(v), 0)
		bwd := b.Neighbor(ring.NodeID(v), 1)
		if int(fwd) != (v+1)%5 {
			t.Errorf("forward(%d) = %d", v, fwd)
		}
		if int(bwd) != (v+4)%5 {
			t.Errorf("backward(%d) = %d", v, bwd)
		}
		// The two directions are mutual inverses.
		if b.Neighbor(fwd, 1) != ring.NodeID(v) || b.Neighbor(bwd, 0) != ring.NodeID(v) {
			t.Errorf("ports at %d are not inverse", v)
		}
	}
	if b.Neighbor(0, 2) != -1 {
		t.Error("out-of-range port should map to -1")
	}
}

// TestTorusPortZeroIsHamiltonian pins the property the uniformity
// predicate relies on: following port 0 from node 0 visits every node
// exactly once before returning.
func TestTorusPortZeroIsHamiltonian(t *testing.T) {
	for _, dims := range [][2]int{{1, 4}, {3, 1}, {2, 3}, {4, 8}, {5, 5}} {
		tor, err := NewTorus(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		n := tor.Size()
		seen := make([]bool, n)
		v := ring.NodeID(0)
		for i := 0; i < n; i++ {
			if seen[v] {
				t.Fatalf("torus %dx%d: node %d revisited after %d hops", dims[0], dims[1], v, i)
			}
			seen[v] = true
			v = tor.Neighbor(v, 0)
		}
		if v != 0 {
			t.Fatalf("torus %dx%d: port-0 walk of length %d ends at %d, not home", dims[0], dims[1], n, v)
		}
	}
}

func TestTorusSouthPort(t *testing.T) {
	tor, err := NewTorus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			v := ring.NodeID(r*4 + c)
			if d := tor.Degree(v); d != 2 {
				t.Errorf("degree(%d) = %d", v, d)
			}
			south := tor.Neighbor(v, 1)
			wantRow, wantCol := (r+1)%3, c
			if int(south) != wantRow*4+wantCol {
				t.Errorf("south(%d,%d) = node %d, want (%d,%d)", r, c, south, wantRow, wantCol)
			}
		}
	}
	if _, err := NewTorus(0, 3); err == nil {
		t.Error("expected error for empty torus")
	}
	if _, err := NewTorus(1<<32, 1<<32); err == nil {
		t.Error("expected error for a torus whose node count overflows int")
	}
}
