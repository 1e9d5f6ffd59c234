package sim

import "math/bits"

// bitset is a hierarchical (multi-level summary) word bitset over a
// fixed universe [0, n). It is the engine's enabled-set representation:
// occupied edge ranks, wakeable agents, pending init nodes, failed
// edges, and the ready set the round-robin fast path picks from are all
// bitsets, replacing the ascending index slices (and their O(set size)
// memmove-on-insert) of the previous engine.
//
// level[0] holds the member bits, one word per 64 universe elements;
// level[l][w] bit b summarizes whether word w*64+b of level[l-1] is
// non-zero. The pyramid shrinks by 64x per level, so a universe of 10^7
// costs n/8 bytes + ~1.6% overhead and four levels. All mutations are
// O(levels) with early exit (the common case touches one word); next
// descends the pyramid with TrailingZeros64, so iterating a sparse set
// costs O(members * levels) regardless of the universe size — the
// property that keeps million-node engines from scanning megabytes of
// zero words per step.
//
// Mutations are idempotent (add of a member, remove of a non-member are
// no-ops), which the engine's fault plumbing relies on.
type bitset struct {
	level [][]uint64
	n     int
	count int
}

// carve makes b an empty set over the universe [0, n) whose levels are
// the next words of the arena (the engine's layout carves every bitset
// out of one uint64 arena, so a checkpoint copies them all at once).
func (b *bitset) carve(n int, arena *carver[uint64]) {
	b.n, b.count, b.level = n, 0, b.level[:0]
	for words := max((n+63)>>6, 1); ; words = (words + 63) >> 6 {
		b.level = append(b.level, arena.take(words))
		if words == 1 {
			return
		}
	}
}

// has reports whether i is a member.
func (b *bitset) has(i int) bool {
	return b.level[0][i>>6]>>(uint(i)&63)&1 == 1
}

// add inserts i, propagating summary bits upward until one is already
// set. No-op if i is already a member.
func (b *bitset) add(i int) {
	idx := i
	for l := 0; l < len(b.level); l++ {
		w := &b.level[l][idx>>6]
		bit := uint64(1) << (uint(idx) & 63)
		if *w&bit != 0 {
			if l == 0 {
				return // already a member
			}
			break // summaries above are already set
		}
		*w |= bit
		if l == 0 {
			b.count++
		}
		idx >>= 6
	}
}

// remove deletes i, clearing summary bits upward while words drain.
// No-op if i is not a member.
func (b *bitset) remove(i int) {
	idx := i
	for l := 0; l < len(b.level); l++ {
		w := &b.level[l][idx>>6]
		bit := uint64(1) << (uint(idx) & 63)
		if *w&bit == 0 {
			if l == 0 {
				return // not a member
			}
			break
		}
		*w &^= bit
		if l == 0 {
			b.count--
		}
		if *w != 0 {
			break // word still populated: summaries stay set
		}
		idx >>= 6
	}
}

// next returns the smallest member >= i, or -1 when there is none.
// Iterate a set ascending with:
//
//	for i := s.next(0); i != -1; i = s.next(i + 1) { ... }
func (b *bitset) next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	idx := i >> 6
	if w := b.level[0][idx] >> (uint(i) & 63); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	// The word containing i is exhausted: climb until a summary word
	// shows a populated sibling subtree after idx, then descend to its
	// lowest member.
	l := 0
	for {
		l++
		if l == len(b.level) {
			return -1
		}
		w := b.level[l][idx>>6] >> (uint(idx) & 63)
		w &^= 1 // idx's own subtree is exhausted below i
		if w != 0 {
			idx += bits.TrailingZeros64(w)
			break
		}
		idx >>= 6
	}
	for l > 0 {
		l--
		idx = idx<<6 | bits.TrailingZeros64(b.level[l][idx])
	}
	return idx
}

// nextCyclic returns the smallest member >= i, wrapping around to the
// smallest member overall when none follows i. It returns -1 only on an
// empty set. This is exactly the round-robin successor: the scheduler's
// cyclic-distance minimum over the enabled agents.
func (b *bitset) nextCyclic(i int) int {
	if j := b.next(i); j != -1 {
		return j
	}
	return b.next(0)
}
