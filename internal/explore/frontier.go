package explore

import (
	"sync"
	"sync/atomic"
)

// item is one unit of search work: a decision path plus the sleep set
// in force when it was generated. cp references an engine checkpoint
// at most DefaultCheckpointStride levels above the path's end: the
// expanding worker (owner or thief alike) restores it and applies only
// the missing suffix, so a stolen item never replays from the initial
// configuration. The checkpoint contents are immutable while
// referenced; the reference count returns them to the pool.
type item struct {
	sleep sleepSet
	cp    *cpRef
	// node is the decision path as an immutable parent-chain (one 3-word
	// node per tree edge, shared by all descendants) instead of one
	// O(depth) slice per item — which is what makes per-state cost
	// O(stride) rather than O(depth). Full slices are materialized only
	// for counterexample confirmation.
	node *prefixNode
}

// prefixNode is one edge of the decision tree: taking decision last at
// the parent's state. The root is nil (depth 0).
type prefixNode struct {
	parent *prefixNode
	last   int
	depth  int
}

func nodeDepth(n *prefixNode) int {
	if n == nil {
		return 0
	}
	return n.depth
}

// materializePrefix rebuilds the decision-index slice for the path from
// the root to n.
func materializePrefix(n *prefixNode) []int {
	if n == nil {
		return nil
	}
	buf := make([]int, n.depth)
	for ; n != nil; n = n.parent {
		buf[n.depth-1] = n.last
	}
	return buf
}

// frontier is the work-stealing scheduler of the parallel search. Each
// worker owns a deque of items: it pushes and pops at the bottom, so
// local work proceeds depth-first (children expand before uncles, the
// cache-friendly order that keeps the frontier small), while idle
// workers steal from the *top* of a victim's deque — the oldest,
// shallowest item, i.e. the root of the largest pending subtree, so one
// steal buys a thief the most private work before it must steal again.
//
// Deques are mutex-protected rather than lock-free: one expansion costs
// microseconds (engine steps, a state key, a cache visit), so deque
// operations are nowhere near the critical path and the simple
// discipline is worth more than the nanoseconds a Chase-Lev deque would
// save.
//
// With Workers=1 the frontier degenerates to an explicit DFS stack:
// expand pushes children bottom-up in reverse index order, next pops
// the bottom, so states are visited in exactly the lexicographic
// depth-first preorder of the recursive search it replaces.
type frontier struct {
	deques []deque

	// pending counts items pushed but not yet finished (queued or being
	// expanded). It reaching zero is the termination condition: no work
	// exists and none can appear, because only an expansion creates
	// items and expansions are counted until finish.
	pending atomic.Int64

	// stop makes every worker drain out at the next dispatch, leaving
	// unexpanded items behind — early exit on a counterexample, a spent
	// wall-clock budget, or context cancellation.
	stop atomic.Bool

	// Parking: an idle worker that found every deque empty waits on
	// cond. seq is bumped under mu by every event a parked worker could
	// care about (push, last finish, stop), so a worker that re-checks
	// the deques, then sleeps only while seq is unchanged, can never
	// miss a wakeup (the event it raced with either lands before its
	// re-check or bumps seq first).
	mu   sync.Mutex
	cond *sync.Cond
	seq  uint64
}

type deque struct {
	mu    sync.Mutex
	items []item
}

func (d *deque) pushBottom(its []item) {
	d.mu.Lock()
	d.items = append(d.items, its...)
	d.mu.Unlock()
}

func (d *deque) popBottom() (item, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return item{}, false
	}
	it := d.items[len(d.items)-1]
	d.items[len(d.items)-1] = item{}
	d.items = d.items[:len(d.items)-1]
	return it, true
}

func (d *deque) popTop() (item, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return item{}, false
	}
	it := d.items[0]
	d.items[0] = item{}
	d.items = d.items[1:]
	return it, true
}

func newFrontier(workers int) *frontier {
	f := &frontier{deques: make([]deque, workers)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// push hands items to worker w's deque (bottom end). The caller must
// push an item's children before calling finish on the item itself, so
// pending can never transiently hit zero while work still exists.
func (f *frontier) push(w int, its []item) {
	if len(its) == 0 {
		return
	}
	f.pending.Add(int64(len(its)))
	f.deques[w].pushBottom(its)
	f.wake()
}

// finish retires one previously dispatched item; the last finish wakes
// the parked workers so they can observe termination.
func (f *frontier) finish() {
	if f.pending.Add(-1) == 0 {
		f.wake()
	}
}

// requestStop makes every dispatch return false from now on.
func (f *frontier) requestStop() {
	f.stop.Store(true)
	f.wake()
}

// wake publishes a state change to parked workers: the seq bump under
// mu is what makes the parking protocol race-free (see the seq field).
func (f *frontier) wake() {
	f.mu.Lock()
	f.seq++
	f.mu.Unlock()
	f.cond.Broadcast()
}

func (f *frontier) stopped() bool { return f.stop.Load() }

// steal scans the other workers' deques round-robin from w+1 and takes
// the top item of the first non-empty one.
func (f *frontier) steal(w int) (item, bool) {
	n := len(f.deques)
	for i := 1; i < n; i++ {
		if it, ok := f.deques[(w+i)%n].popTop(); ok {
			return it, true
		}
	}
	return item{}, false
}

// next dispatches the next item to worker w: own deque first (bottom,
// depth-first), then a steal, then park until new work or termination.
// It returns false when the search is over — every item finished, or
// stop was requested.
func (f *frontier) next(w int) (item, bool) {
	for {
		if f.stop.Load() {
			return item{}, false
		}
		if it, ok := f.deques[w].popBottom(); ok {
			return it, true
		}
		if it, ok := f.steal(w); ok {
			return it, true
		}
		// Nothing visible. Snapshot seq, re-check the world, and only
		// then sleep — a push between the re-check and the wait bumps
		// seq and the wait loop falls through immediately.
		f.mu.Lock()
		seq := f.seq
		f.mu.Unlock()
		if f.stop.Load() || f.pending.Load() == 0 {
			return item{}, false
		}
		if it, ok := f.steal(w); ok {
			return it, true
		}
		f.mu.Lock()
		for f.seq == seq && !f.stop.Load() && f.pending.Load() != 0 {
			f.cond.Wait()
		}
		f.mu.Unlock()
	}
}
