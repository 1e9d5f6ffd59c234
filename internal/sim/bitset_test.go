package sim

import (
	"math/rand"
	"testing"
)

// newBitset returns an empty set over the universe [0, n) on words of
// its own, carved the way layout carves the engine's.
func newBitset(n int) *bitset {
	b := &bitset{}
	var words carver[uint64]
	b.carve(n, &words)
	words = carver[uint64]{arena: make([]uint64, words.used)}
	b.carve(n, &words)
	return b
}

// TestBitsetAgainstMap drives a bitset and a reference map through the
// same random mutation stream over several universe sizes (one, two,
// and three+ summary levels) and checks membership, count, and
// ascending iteration after every batch.
func TestBitsetAgainstMap(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 4096, 4097, 300000} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := newBitset(n)
		ref := make(map[int]bool)
		for batch := 0; batch < 50; batch++ {
			for op := 0; op < 40; op++ {
				i := rng.Intn(n)
				if rng.Intn(2) == 0 {
					b.add(i)
					ref[i] = true
				} else {
					b.remove(i)
					delete(ref, i)
				}
			}
			if b.count != len(ref) {
				t.Fatalf("n=%d: count = %d, want %d", n, b.count, len(ref))
			}
			var got []int
			for i := b.next(0); i != -1; i = b.next(i + 1) {
				got = append(got, i)
				if !b.has(i) {
					t.Fatalf("n=%d: iterated non-member %d", n, i)
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("n=%d: iterated %d members, want %d", n, len(got), len(ref))
			}
			for idx, i := range got {
				if !ref[i] {
					t.Fatalf("n=%d: iterated %d not in reference", n, i)
				}
				if idx > 0 && got[idx-1] >= i {
					t.Fatalf("n=%d: iteration not ascending: %v", n, got)
				}
			}
		}
	}
}

// TestBitsetEdges pins the boundary behaviour next/nextCyclic/add/remove
// rely on: idempotence, out-of-range queries, and word-boundary members.
func TestBitsetEdges(t *testing.T) {
	b := newBitset(200)
	if b.next(0) != -1 || b.nextCyclic(5) != -1 {
		t.Fatal("empty set should have no next member")
	}
	b.add(63)
	b.add(63) // idempotent
	b.add(64)
	b.add(199)
	if b.count != 3 {
		t.Fatalf("count = %d, want 3", b.count)
	}
	if got := b.next(0); got != 63 {
		t.Fatalf("next(0) = %d, want 63", got)
	}
	if got := b.next(64); got != 64 {
		t.Fatalf("next(64) = %d, want 64", got)
	}
	if got := b.next(65); got != 199 {
		t.Fatalf("next(65) = %d, want 199", got)
	}
	if got := b.next(200); got != -1 {
		t.Fatalf("next(200) = %d, want -1", got)
	}
	if got := b.nextCyclic(200); got != 63 {
		t.Fatalf("nextCyclic(200) = %d, want 63", got)
	}
	if got := b.nextCyclic(65); got != 199 {
		t.Fatalf("nextCyclic(65) = %d, want 199", got)
	}
	b.remove(64)
	b.remove(64) // idempotent
	b.remove(42) // non-member
	if b.count != 2 {
		t.Fatalf("count = %d, want 2", b.count)
	}
	if got := b.next(64); got != 199 {
		t.Fatalf("next(64) after removal = %d, want 199", got)
	}
	// Drain completely: summaries must clear so iteration terminates.
	b.remove(63)
	b.remove(199)
	if b.count != 0 || b.next(0) != -1 {
		t.Fatalf("drained set not empty: count=%d next=%d", b.count, b.next(0))
	}
	// Single-member cyclic pick: the round-robin self-successor case.
	b.add(77)
	if got := b.nextCyclic(78); got != 77 {
		t.Fatalf("nextCyclic(78) = %d, want 77", got)
	}
}
