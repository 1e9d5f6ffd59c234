package explore

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkCacheVisit times one stateCache.visit against a cache of the
// given size. A hit revisits a stored key that the stored entry
// subsumes (the pruned path); a miss inserts a new key, growth
// included, and the cache is rebuilt outside the timer whenever the
// misses have doubled it, so its size stays within [entries, 2·entries).
func BenchmarkCacheVisit(b *testing.B) {
	for _, entries := range []int{1_000, 100_000, 1_000_000} {
		fill := func(c *stateCache, st *stats, from, to int) {
			for i := from; i < to; i++ {
				c.visit(mix64(uint64(i)+1), 1, 0, false, math.MaxInt64, st)
			}
		}
		b.Run(fmt.Sprintf("hit/entries=%d", entries), func(b *testing.B) {
			c, st := newStateCache(), &stats{}
			fill(c, st, 0, entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.visit(mix64(uint64(i%entries)+1), 2, 0, false, math.MaxInt64, st)
			}
		})
		b.Run(fmt.Sprintf("miss/entries=%d", entries), func(b *testing.B) {
			c, st := newStateCache(), &stats{}
			fill(c, st, 0, entries)
			next := entries
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == 2*entries {
					b.StopTimer()
					c, st = newStateCache(), &stats{}
					fill(c, st, 0, entries)
					next = entries
					b.StartTimer()
				}
				c.visit(mix64(uint64(next)+1), 1, 0, false, math.MaxInt64, st)
				next++
			}
		})
	}
}
