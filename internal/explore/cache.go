package explore

// cacheShards is the number of cache partitions. A shard doubles on its
// own, so a growing cache copies 1/64 of itself at a time and never
// holds a whole old table next to its doubled successor, which at the
// last doubling of one flat table would be half as much memory again.
// The shard index is the key's low shardBits bits, and a shard's table
// probes from the bits above them. Keys need no further hashing: sim
// state keys are already avalanche hashes.
const (
	shardBits   = 6
	cacheShards = 1 << shardBits
)

// minShardSlots is the size of a shard's first table, allocated on its
// first insert: small, because a search's fixed cost includes every
// shard it touches and small searches touch all of them.
const minShardSlots = 8

// mapMinSlots is the smallest table newTable maps outside the Go heap
// (table_linux.go); smaller caches, under 3 MiB in all, fit the
// collector's 4 MB minimum heap goal, where mapping adds resident pages.
const mapMinSlots = 2048

// cacheEntry records how a canonical state was explored: the agents
// asleep in every visit so far (the intersection of their sleep sets),
// and whether it is a quiescent terminal. It stores no depth, because
// the key fixes it (see visit). A revisit is redundant iff its sleep set
// holds every agent the stored one does. The entry packs into 16 bytes,
// used included, which keeps the cache — the bulk of a large search's
// memory — small; six of them are padding.
type cacheEntry struct {
	sleep    sleepSet
	terminal bool
	used     bool // the slot holds a state, so key 0 needs no sentinel
}

// cacheSlot is one 24-byte slot of a shard's open-addressed table.
type cacheSlot struct {
	key   uint64
	entry cacheEntry
}

// cacheShard is a flat open-addressed table with linear probing. Its
// length is a power of two that doubles at 3/4 load, so its memory is
// exactly len(slots) × 24 bytes.
type cacheShard struct {
	slots []cacheSlot // nil until the first insert
	mem   []byte      // the mapping behind slots (newTable), nil for a heap table
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

// grow doubles the table (or allocates the first one), reinserts every
// entry and frees the old table.
func (s *cacheShard) grow() {
	old, oldMem := s.slots, s.mem
	s.slots, s.mem = newTable(max(minShardSlots, 2*len(old)))
	for _, sl := range old {
		if sl.entry.used {
			*s.slot(sl.key) = sl
		}
	}
	freeTable(oldMem)
}

// stateCache is the canonical-state cache, sharded by key: a visit
// touches exactly one shard. Entries are only ever weakened (sleep set
// shrunk), and the visits of a key run one after another, so each
// transition out of it is handed to exactly one of them (see visit).
type stateCache struct {
	shards [cacheShards]cacheShard
}

func newStateCache() *stateCache { return &stateCache{} }

// release unmaps the mapped tables at the end of a search; the cache
// must not be visited afterwards.
func (c *stateCache) release() {
	for i := range c.shards {
		freeTable(c.shards[i].mem)
		c.shards[i] = cacheShard{}
	}
}

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

// visit applies the cache discipline to one replayed state and updates
// the ledger. It returns the outcome, the sleep set the expansion
// runs under, the awake set that restricts it (zero for an unrestricted
// expansion), and whether this visit is the first to see the key as a
// terminal — the one visit allowed to run the property check, so each
// terminal configuration is judged exactly once no matter how many
// schedules reach it.
//
// A revisit that the stored entry does not subsume (its sleep set Z
// misses some agents of the stored set H) follows Godefroid's
// state-caching rule: the earlier visits explored every enabled
// transition outside H, so this visit owes only the awake set H &^ Z —
// the transitions all of them slept and this one does not — and runs
// under the sleep set H & Z, which is also what the entry keeps. The
// visits of one key run one after another, so their awake sets are
// disjoint and each (state, transition) pair is expanded at most once.
//
// Every visit of a key is at the key's one depth: under TrackState,
// equal keys have equal depth up to 64-bit collisions (sim's package
// doc, "State identity"), so a revisit never sees a subtree that
// MaxDepth cut shorter than its own, and never a different fixed-fault
// suffix.
//
// MaxStates is an exact bound on the states counter.
func (c *stateCache) visit(key uint64, sleep sleepSet, terminal bool, maxStates int, st *Stats) (visitOutcome, sleepSet, sleepSet, bool) {
	s := &c.shards[key%cacheShards]
	var sl *cacheSlot
	if s.slots != nil {
		sl = s.slot(key)
	}
	if sl == nil || !sl.entry.used {
		if st.States >= maxStates {
			st.Truncated++
			return visitTruncated, 0, 0, false
		}
		st.States++
		if 4*(s.count+1) > 3*len(s.slots) {
			s.grow()
			sl = s.slot(key)
		}
		s.count++
		sl.key = key
		sl.entry = cacheEntry{sleep: sleep, terminal: terminal, used: true}
		if terminal {
			st.Terminals++
			st.DistinctTerminals++
		}
		return visitExpand, sleep, 0, terminal
	}
	entry := &sl.entry
	if entry.sleep&^sleep == 0 {
		st.Pruned++
		if terminal {
			st.Terminals++
		}
		return visitPruned, 0, 0, false
	}
	awake := entry.sleep &^ sleep
	entry.sleep &= sleep
	first := false
	if terminal {
		st.Terminals++
		// The key determines the configuration, so a revisited terminal
		// key was terminal on first visit too; first stays false and the
		// property is not re-checked. The defensive update keeps the
		// invariant even if that ever changed.
		first = !entry.terminal
		if first {
			entry.terminal = true
			st.DistinctTerminals++
		}
	}
	return visitExpand, entry.sleep, awake, first
}
