package ring

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewRejectsTooSmall(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := New(n); !errors.Is(err, ErrTooSmall) {
			t.Errorf("New(%d) error = %v, want ErrTooSmall", n, err)
		}
	}
}

func TestNewSingleNode(t *testing.T) {
	r, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Neighbor(0, 0); got != 0 {
		t.Errorf("Neighbor(0, 0) on 1-ring = %d, want 0", got)
	}
}

func TestNextWrapsAround(t *testing.T) {
	r := MustNew(5)
	want := []NodeID{1, 2, 3, 4, 0}
	for i := 0; i < 5; i++ {
		if got := r.Neighbor(NodeID(i), 0); got != want[i] {
			t.Errorf("Neighbor(%d, 0) = %d, want %d", i, got, want[i])
		}
	}
	if got := r.Neighbor(0, 1); got != -1 {
		t.Errorf("Neighbor(0, 1) = %d, want -1 (no second port)", got)
	}
}

func TestDistanceSequence(t *testing.T) {
	// Fig 1(a)-style: positions with gaps (1,4,2,1,2,2) on a 12-ring
	// starting at node 0: 0,1,5,7,8,10.
	gaps, err := DistanceSequence(12, []NodeID{0, 1, 5, 7, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 4, 2, 1, 2, 2}; !reflect.DeepEqual(gaps, want) {
		t.Errorf("gaps = %v, want %v", gaps, want)
	}
}

func TestDistanceSequenceUnorderedInput(t *testing.T) {
	// Same set, scrambled: sequence must start from positions[0] and
	// follow ring order.
	gaps, err := DistanceSequence(12, []NodeID{5, 0, 10, 7, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 1, 2, 2, 1, 4}; !reflect.DeepEqual(gaps, want) {
		t.Errorf("gaps = %v, want %v", gaps, want)
	}
}

func TestDistanceSequenceSingleAgent(t *testing.T) {
	gaps, err := DistanceSequence(8, []NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{8}; !reflect.DeepEqual(gaps, want) {
		t.Errorf("gaps = %v, want %v", gaps, want)
	}
}

func TestDistanceSequenceErrors(t *testing.T) {
	if _, err := DistanceSequence(5, nil); err == nil {
		t.Error("empty positions must error")
	}
	if _, err := DistanceSequence(5, []NodeID{1, 1}); err == nil {
		t.Error("duplicate positions must error")
	}
	if _, err := DistanceSequence(5, []NodeID{7}); err == nil {
		t.Error("out-of-range position must error")
	}
	if _, err := DistanceSequence(5, []NodeID{-1}); err == nil {
		t.Error("negative position must error")
	}
}

func TestDistanceSequenceSumsToN(t *testing.T) {
	f := func(nRaw uint8, posRaw []uint8) bool {
		n := int(nRaw%60) + 1
		seen := make(map[NodeID]bool)
		var positions []NodeID
		for _, p := range posRaw {
			v := NodeID(int(p) % n)
			if !seen[v] {
				seen[v] = true
				positions = append(positions, v)
			}
		}
		if len(positions) == 0 {
			return true
		}
		gaps, err := DistanceSequence(n, positions)
		if err != nil {
			return false
		}
		total := 0
		for _, g := range gaps {
			total += g
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
