package explore

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
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
				c.visit(mix64(uint64(i)+1), 1, 0, false, math.MaxInt, st)
			}
		}
		b.Run(fmt.Sprintf("hit/entries=%d", entries), func(b *testing.B) {
			c, st := newStateCache(), &stats{}
			defer c.release()
			fill(c, st, 0, entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.visit(mix64(uint64(i%entries)+1), 2, 0, false, math.MaxInt, st)
			}
		})
		b.Run(fmt.Sprintf("miss/entries=%d", entries), func(b *testing.B) {
			c, st := newStateCache(), &stats{}
			defer func() { c.release() }()
			fill(c, st, 0, entries)
			next := entries
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == 2*entries {
					b.StopTimer()
					c.release()
					c, st = newStateCache(), &stats{}
					fill(c, st, 0, entries)
					next = entries
					b.StartTimer()
				}
				c.visit(mix64(uint64(next)+1), 1, 0, false, math.MaxInt, st)
				next++
			}
		})
	}
}

// TestCacheGrowsIntoMappedTables fills every shard past mapMinSlots,
// where Linux maps the tables outside the Go heap, and requires every
// key to survive each doubling and release to drop every table.
func TestCacheGrowsIntoMappedTables(t *testing.T) {
	c, st := newStateCache(), &stats{}
	const keys = 80_000 // about 1,250 a shard, past 3/4 of 1,024 slots in each
	for pass, want := range []visitOutcome{visitExpand, visitPruned} {
		for i := range keys {
			if out, _, _, _ := c.visit(mix64(uint64(i)+1), 1, 0, false, math.MaxInt, st); out != want {
				t.Fatalf("pass %d, key %d: outcome %v, want %v", pass, i, out, want)
			}
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		if len(s.slots) < mapMinSlots {
			t.Fatalf("shard %d: %d slots, want at least %d", i, len(s.slots), mapMinSlots)
		}
		if mapped := s.mem != nil; mapped != (runtime.GOOS == "linux") {
			t.Fatalf("shard %d on %s: mapped %v", i, runtime.GOOS, mapped)
		}
		if s.mem != nil && len(s.mem) != len(s.slots)*int(reflect.TypeFor[cacheSlot]().Size()) {
			t.Fatalf("shard %d: %d mapped bytes for %d slots", i, len(s.mem), len(s.slots))
		}
	}
	c.release()
	for i := range c.shards {
		if s := &c.shards[i]; s.slots != nil || s.mem != nil || s.count != 0 {
			t.Fatalf("shard %d after release: %d slots, %d mapped bytes, count %d", i, len(s.slots), len(s.mem), s.count)
		}
	}
}

// TestCacheSlotHoldsNoPointers guards the mapped tables: the collector
// never scans them, so a pointer kept in a slot would not keep its
// target alive.
func TestCacheSlotHoldsNoPointers(t *testing.T) {
	var check func(reflect.Type, string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			check(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		default:
			t.Errorf("%s is a %s, which may hold a pointer", path, typ.Kind())
		}
	}
	check(reflect.TypeFor[cacheSlot](), "cacheSlot")
}
