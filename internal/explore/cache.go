package explore

import (
	"sync"
	"sync/atomic"
)

// stats is the search's shared scoreboard. Every counter is atomic so
// workers update it without serializing on a global lock; all counters
// are monotone sums (or maxes), so the totals are independent of the
// order workers happened to interleave in — which is what lets the
// Workers=1 and Workers=8 runs of a complete search report identical
// States, Terminals and DistinctTerminals.
type stats struct {
	states            atomic.Int64
	pruned            atomic.Int64
	sleepSkips        atomic.Int64
	replays           atomic.Int64
	stepsReplayed     atomic.Int64
	terminals         atomic.Int64
	distinctTerminals atomic.Int64
	truncated         atomic.Int64
	deepest           atomic.Int64
}

// observeDepth folds one replayed depth into the running maximum.
func (s *stats) observeDepth(depth int) {
	d := int64(depth)
	for {
		cur := s.deepest.Load()
		if d <= cur || s.deepest.CompareAndSwap(cur, d) {
			return
		}
	}
}

// cacheShards is the number of independently locked cache partitions.
// 64 keeps the probability of two of ≤16 workers colliding on a shard
// low; the shard index is the key's low shardBits bits, and a shard's
// table probes from the bits above them. Keys need no further hashing:
// they are already avalanche hashes (sim state keys, or mix64-finalized
// depth tags under faults).
const (
	shardBits   = 6
	cacheShards = 1 << shardBits
)

// minShardSlots is the size of a shard's first table, allocated on its
// first insert: small, because a search's fixed cost includes every
// shard it touches and small searches touch all of them.
const minShardSlots = 8

// cacheEntry records how a canonical state was last explored: the
// shallowest depth it was expanded at, the agents asleep in every visit
// so far (the intersection of their sleep sets), and whether it is a
// quiescent terminal. A revisit is redundant iff it is no shallower and
// its sleep set holds every agent the stored one does. The entry packs
// into 16 bytes, used included (it sits in the padding), which keeps
// the cache — the bulk of a large search's memory — small; depth fits
// in an int32 because Explore caps MaxDepth there.
type cacheEntry struct {
	sleep    sleepSet
	depth    int32
	terminal bool
	used     bool // the slot holds a state, so key 0 needs no sentinel
}

// cacheSlot is one 24-byte slot of a shard's open-addressed table.
type cacheSlot struct {
	key   uint64
	entry cacheEntry
}

// cacheShard is a flat open-addressed table with linear probing behind
// its own mutex. Its length is a power of two that doubles at 3/4
// load, so its memory is exactly len(slots) × 24 bytes.
type cacheShard struct {
	mu    sync.Mutex
	slots []cacheSlot // nil until the first insert
	count int
}

// slot returns the slot holding key, or the empty slot where key
// belongs. The table must be allocated and below full load.
func (s *cacheShard) slot(key uint64) *cacheSlot {
	mask := uint64(len(s.slots) - 1)
	for i := (key >> shardBits) & mask; ; i = (i + 1) & mask {
		if sl := &s.slots[i]; !sl.entry.used || sl.key == key {
			return sl
		}
	}
}

// grow doubles the table (or allocates the first one) and reinserts
// every entry.
func (s *cacheShard) grow() {
	old := s.slots
	s.slots = make([]cacheSlot, max(minShardSlots, 2*len(old)))
	for _, sl := range old {
		if sl.entry.used {
			*s.slot(sl.key) = sl
		}
	}
}

// stateCache is the canonical-state cache, sharded by key so concurrent
// workers almost never contend: a visit touches exactly one shard.
// Entries are only ever weakened (depth lowered, sleep set shrunk), and
// every visit of one key reads and updates its entry under that shard's
// lock, so the visits of a key are serialized and each transition out
// of it is handed to exactly one of them (see visit).
type stateCache struct {
	shards [cacheShards]cacheShard
}

func newStateCache() *stateCache { return &stateCache{} }

// visitOutcome says what the expansion loop must do with a replayed
// state after consulting the cache.
type visitOutcome int

const (
	// visitExpand: a new state, or a revisit that wakes transitions —
	// expand children using the sleep and awake sets returned alongside.
	visitExpand visitOutcome = iota
	// visitPruned: subsumed by a prior visit — unwind.
	visitPruned
	// visitTruncated: the MaxStates budget is exhausted — unwind and
	// count the cut branch.
	visitTruncated
)

// visit applies the cache discipline to one replayed state under the
// owning shard's lock and updates the scoreboard. It returns the
// outcome, the sleep set the expansion runs under, the awake set that
// restricts it (zero for an unrestricted expansion), and whether this
// visit is the first to see the key as a terminal — the one visit
// allowed to run the property check, so each terminal configuration is
// judged exactly once no matter how many schedules reach it or which
// worker got there first.
//
// A revisit that is no shallower than the stored entry but does not
// subsume it (its sleep set Z misses some agents of the stored set H)
// follows Godefroid's state-caching rule: the earlier visits explored
// every enabled transition outside H, so this visit owes only the
// awake set H &^ Z — the transitions all of them slept and this one
// does not — and runs under the sleep set H & Z, which is also what the
// entry keeps. Because the visits of one key are serialized, their
// awake sets are disjoint and each (state, transition) pair is expanded
// at most once. Shallower revisits, which matter only when MaxDepth cut
// the earlier subtree, keep the unrestricted expansion under H & Z.
//
// MaxStates is enforced against the shared states counter; concurrent
// inserts on different shards can overshoot it by at most one state per
// worker, and with Workers <= 1 the bound is exact (which keeps
// truncated sequential searches deterministic).
func (c *stateCache) visit(key uint64, depth int, sleep sleepSet, terminal bool, maxStates int64, st *stats) (visitOutcome, sleepSet, sleepSet, bool) {
	s := &c.shards[key%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	var sl *cacheSlot
	if s.slots != nil {
		sl = s.slot(key)
	}
	if sl == nil || !sl.entry.used {
		if st.states.Load() >= maxStates {
			st.truncated.Add(1)
			return visitTruncated, 0, 0, false
		}
		st.states.Add(1)
		if 4*(s.count+1) > 3*len(s.slots) {
			s.grow()
			sl = s.slot(key)
		}
		s.count++
		sl.key = key
		sl.entry = cacheEntry{depth: int32(depth), sleep: sleep, terminal: terminal, used: true}
		if terminal {
			st.terminals.Add(1)
			st.distinctTerminals.Add(1)
		}
		return visitExpand, sleep, 0, terminal
	}
	entry := &sl.entry
	if int(entry.depth) <= depth && entry.sleep&^sleep == 0 {
		st.pruned.Add(1)
		if terminal {
			st.terminals.Add(1)
		}
		return visitPruned, 0, 0, false
	}
	var awake sleepSet
	if depth < int(entry.depth) {
		entry.depth = int32(depth)
	} else {
		awake = entry.sleep &^ sleep
	}
	entry.sleep &= sleep
	first := false
	if terminal {
		st.terminals.Add(1)
		// The key determines the configuration, so a revisited terminal
		// key was terminal on first visit too; first stays false and the
		// property is not re-checked. The defensive update keeps the
		// invariant even if that ever changed.
		first = !entry.terminal
		if first {
			entry.terminal = true
			st.distinctTerminals.Add(1)
		}
	}
	return visitExpand, entry.sleep, awake, first
}
