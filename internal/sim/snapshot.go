package sim

import (
	"fmt"
	"slices"
)

// Configuration is a full snapshot of the global configuration
// C = (S, T, M, P, Q) of Table 2 in the paper, taken between atomic
// actions.
type Configuration struct {
	// Step is the number of atomic actions executed before this
	// snapshot.
	Step int
	// Statuses is S: the lifecycle state of each agent (full local agent
	// state lives inside the running program and is intentionally
	// opaque, as the model's S is algorithm-specific).
	Statuses []Status
	// Tokens is T: per-node token counts.
	Tokens []int
	// MailboxSizes is M: the number of delivered-but-unconsumed messages
	// per agent.
	MailboxSizes []int
	// Staying is P: for each node, the agents staying there (waiting or
	// halted), in agent-index order.
	Staying [][]int
	// InTransit is Q: for each node v, the agents in transit toward v
	// (head first). On an in-degree-1 topology this is the node's single
	// link FIFO; with several incoming links it concatenates the
	// per-link queues in arrival-rank order, and EdgeQueues carries the
	// exact per-link structure.
	InTransit [][]int
	// EdgeQueues is the per-directed-edge FIFO structure, indexed by
	// arrival rank (edges sorted by destination, then edge id; on a
	// unidirectional ring rank r is the single edge toward node r, so
	// EdgeQueues equals InTransit there). Nil for hand-built
	// configurations that predate the topology layer.
	EdgeQueues [][]int
	// Moves is the per-agent cumulative move count (not part of the
	// paper's C; carried for invariant checking).
	Moves []int
	// Epoch counts the effective link mutations applied before this
	// snapshot (zero for a static run); DownEdges lists the currently
	// failed directed edges by arrival rank, ascending (empty when all
	// links are up). Together they extend C with the dynamic-topology
	// component: a failed edge's queue is frozen in place.
	Epoch     int
	DownEdges []int
	// AdvActive is true when the engine runs with Options.Adversary; the
	// two Adv fields below then extend C with the adversary's own state,
	// which is future-determining (it bounds the remaining fail moves and
	// the forced-repair deadlines). AdvFailures counts the fail moves
	// spent so far; AdvDownAges holds, aligned with DownEdges, each down
	// link's age — atomic actions executed since its fail. Ages are
	// relative, not absolute step stamps, so equal configurations reached
	// at different depths compare (and hash) equal.
	AdvActive   bool
	AdvFailures int
	AdvDownAges []int
	// AgentHashes, present only when the engine runs with
	// Options.TrackState, holds per-agent canonical hashes folding the
	// agent's complete observation history with its pending mailbox
	// payloads. Two configurations with equal visible components and
	// equal AgentHashes describe the same global state (up to 64-bit
	// collisions), because each program's internal state is a
	// deterministic function of what it observed.
	AgentHashes []uint64
}

// Observer receives a configuration snapshot after every atomic action
// (and once before the first). Observers must not retain the slices
// beyond the call unless they copy them — the engine allocates a fresh
// snapshot per call, but auditors commonly keep only aggregates.
type Observer func(Configuration)

// snapshot builds the current global configuration.
func (e *Engine) snapshot() Configuration {
	n := e.et.n
	k := len(e.node)
	cfg := Configuration{
		Step:         e.steps,
		Statuses:     make([]Status, k),
		Tokens:       slices.Clone(e.tokens),
		MailboxSizes: make([]int, k),
		Staying:      make([][]int, n),
		InTransit:    make([][]int, n),
		EdgeQueues:   make([][]int, e.et.edges()),
		Moves:        make([]int, k),
	}
	copy(cfg.Statuses, e.status)
	for i := 0; i < k; i++ {
		cfg.MailboxSizes[i] = len(e.mailbox[i])
		cfg.Moves[i] = int(e.moves[i])
		// Built from the agent arrays in index order (not from the
		// intrusive staying lists), so Staying is canonical regardless of
		// list insertion order.
		if e.status[i] == StatusWaiting || e.status[i] == StatusHalted {
			cfg.Staying[e.node[i]] = append(cfg.Staying[e.node[i]], i)
		}
	}
	// Residents still awaiting their first activation head their home
	// node's in-transit view: the initial configuration's home buffer.
	for v := e.initNodes.next(0); v != -1; v = e.initNodes.next(v + 1) {
		cfg.InTransit[v] = append(cfg.InTransit[v], int(e.initPending[v]))
	}
	for r := 0; r < e.et.edges(); r++ {
		q := e.queueSnapshot(r)
		cfg.EdgeQueues[r] = q
		dest := e.et.rankDest[r]
		cfg.InTransit[dest] = append(cfg.InTransit[dest], q...)
	}
	cfg.Epoch = e.epoch
	if e.downCount > 0 {
		cfg.DownEdges = make([]int, 0, e.downCount)
		for r := e.down.next(0); r != -1; r = e.down.next(r + 1) {
			cfg.DownEdges = append(cfg.DownEdges, r)
		}
	}
	if e.adv != nil {
		cfg.AdvActive = true
		cfg.AdvFailures = e.advFails
		for _, r := range cfg.DownEdges {
			cfg.AdvDownAges = append(cfg.AdvDownAges, e.steps-int(e.advDownAt[r]))
		}
	}
	if e.track {
		cfg.AgentHashes = make([]uint64, k)
		for i := 0; i < k; i++ {
			cfg.AgentHashes[i] = fold(e.obsHash[i], e.mailHash[i])
		}
	}
	return cfg
}

// Snapshot returns the current global configuration. It is valid
// between atomic actions and after Run has returned (including runs a
// Controlled scheduler stopped early), which is how replay-driven tools
// inspect the state a decision prefix leads to.
func (e *Engine) Snapshot() Configuration { return e.snapshot() }

// Key canonically hashes the configuration into a single value suitable
// for state caching: every component that determines future behaviour
// is included — statuses, tokens, staying sets, queue contents and
// order, AgentHashes, the down set and the adversary's state — while
// Step, Moves and Epoch (run metrics, not state) are excluded. Two
// configurations with equal keys are the same global state up to 64-bit
// collisions, provided both were produced by engines with
// Options.TrackState set.
//
// The key is the XOR of one term per component (statehash.go):
//
//   - per agent: id, status, the node it stays at (-1 in transit) and
//     its AgentHashes entry (0 without TrackState);
//   - per queued agent: the edge rank, its id and the agent ahead of it
//     (-1 at the head), which fixes the queue's order;
//   - per node holding tokens: the node and its count;
//   - per failed link: its rank, so all-up keys equal the static
//     engine's;
//   - with an adversary: one term folding the spent fails and the down
//     links' relative ages in DownEdges (rank) order.
//
// Key computes the sum from scratch and is the oracle for
// Engine.StateKey, which maintains the same sum incrementally.
func (c Configuration) Key() uint64 {
	stay := make([]int, len(c.Statuses)) // the node each agent stays at
	for i := range stay {
		stay[i] = -1
	}
	for v, ids := range c.Staying {
		for _, id := range ids {
			stay[id] = v
		}
	}
	var h uint64
	for i, s := range c.Statuses {
		var ah uint64
		if c.AgentHashes != nil {
			ah = c.AgentHashes[i]
		}
		h ^= agentTerm(i, s, stay[i], ah)
	}
	for v, t := range c.Tokens {
		h ^= tokenTerm(v, t)
	}
	queues := c.EdgeQueues
	if queues == nil {
		queues = c.InTransit
	}
	for r, q := range queues {
		seed, pred := queueSeed(r), -1
		for _, id := range q {
			h ^= queueTerm(seed, id, pred)
			pred = id
		}
	}
	for _, r := range c.DownEdges {
		h ^= downTerm(r)
	}
	if c.AdvActive {
		a := advTerm(c.AdvFailures)
		for _, age := range c.AdvDownAges {
			a = advAge(a, age)
		}
		h ^= a
	}
	return h
}

// Auditor checks execution invariants of the Section 2 model across a
// stream of configuration snapshots. Wire its Observe method into
// Options.Observer and call Err at the end.
type Auditor struct {
	prev    *Configuration
	haltPos map[int]int
	err     error
}

// NewAuditor returns an auditor ready to observe a run.
func NewAuditor() *Auditor {
	return &Auditor{haltPos: make(map[int]int)}
}

// Observe implements Observer.
func (a *Auditor) Observe(cfg Configuration) {
	if a.err != nil {
		return
	}
	a.err = a.check(cfg)
	prev := cfg
	a.prev = &prev
}

// Err returns the first invariant violation observed, or nil.
func (a *Auditor) Err() error { return a.err }

func (a *Auditor) check(cfg Configuration) error {
	// (1) Every agent occupies exactly one place: staying at one node or
	// in exactly one link queue.
	k := len(cfg.Statuses)
	places := make([]int, k)
	for v, agents := range cfg.Staying {
		for _, id := range agents {
			if id < 0 || id >= k {
				return fmt.Errorf("audit: bogus agent %d staying at node %d", id, v)
			}
			places[id]++
		}
	}
	for v, q := range cfg.InTransit {
		for _, id := range q {
			if id < 0 || id >= k {
				return fmt.Errorf("audit: bogus agent %d in transit to node %d", id, v)
			}
			places[id]++
		}
	}
	for id, c := range places {
		if c != 1 {
			return fmt.Errorf("audit: step %d: agent %d occupies %d places", cfg.Step, id, c)
		}
		switch cfg.Statuses[id] {
		case StatusInTransit:
			if !inSomeQueue(cfg.InTransit, id) {
				return fmt.Errorf("audit: step %d: agent %d marked in-transit but not queued", cfg.Step, id)
			}
		case StatusWaiting, StatusHalted:
			if inSomeQueue(cfg.InTransit, id) {
				return fmt.Errorf("audit: step %d: staying agent %d found in a queue", cfg.Step, id)
			}
		default:
			return fmt.Errorf("audit: step %d: agent %d has unknown status", cfg.Step, id)
		}
	}
	if a.prev == nil {
		return nil
	}
	prev := a.prev
	// (2) Tokens are indelible: per-node counts never decrease.
	for v := range cfg.Tokens {
		if cfg.Tokens[v] < prev.Tokens[v] {
			return fmt.Errorf("audit: step %d: token count at node %d dropped %d -> %d",
				cfg.Step, v, prev.Tokens[v], cfg.Tokens[v])
		}
	}
	// (3) Move counters never decrease, and at most one agent moves per
	// atomic action.
	movers := 0
	for id := range cfg.Moves {
		switch {
		case cfg.Moves[id] < prev.Moves[id]:
			return fmt.Errorf("audit: step %d: agent %d move count decreased", cfg.Step, id)
		case cfg.Moves[id] > prev.Moves[id]:
			movers++
			if cfg.Moves[id] != prev.Moves[id]+1 {
				return fmt.Errorf("audit: step %d: agent %d moved %d times in one action",
					cfg.Step, id, cfg.Moves[id]-prev.Moves[id])
			}
		}
	}
	if movers > 1 {
		return fmt.Errorf("audit: step %d: %d agents moved in one atomic action", cfg.Step, movers)
	}
	// (4) Halted agents never change state or position again.
	for id, pos := range a.haltPos {
		if cfg.Statuses[id] != StatusHalted {
			return fmt.Errorf("audit: step %d: halted agent %d resurrected", cfg.Step, id)
		}
		if got := stayingNode(cfg.Staying, id); got != pos {
			return fmt.Errorf("audit: step %d: halted agent %d moved %d -> %d", cfg.Step, id, pos, got)
		}
	}
	for id, st := range cfg.Statuses {
		if st == StatusHalted {
			if _, ok := a.haltPos[id]; !ok {
				a.haltPos[id] = stayingNode(cfg.Staying, id)
			}
		}
	}
	// (5) FIFO: a queue changes only by popping its head or pushing at
	// its tail. Both at once is possible only on a 1-node network, where
	// an arriving agent's move re-enters a queue toward the same node.
	// Engine snapshots are audited per directed edge (EdgeQueues);
	// hand-built configurations without edge structure fall back to the
	// per-node view, which is identical on in-degree-1 topologies.
	allowReentry := len(cfg.Tokens) == 1
	prevQ, curQ := prev.InTransit, cfg.InTransit
	unit := "node"
	if prev.EdgeQueues != nil && cfg.EdgeQueues != nil {
		prevQ, curQ, unit = prev.EdgeQueues, cfg.EdgeQueues, "edge rank"
	}
	for v := range curQ {
		if !fifoEvolution(prevQ[v], curQ[v], allowReentry) {
			return fmt.Errorf("audit: step %d: queue to %s %d mutated non-FIFO: %v -> %v",
				cfg.Step, unit, v, prevQ[v], curQ[v])
		}
	}
	// (6) Failed links freeze their queues: while an edge is down in two
	// consecutive snapshots, its FIFO may grow at the tail (a move onto
	// a failed link is a frozen send) but must never pop its head.
	if prev.EdgeQueues != nil && cfg.EdgeQueues != nil && !allowReentry {
		for _, r := range intersectSortedInts(prev.DownEdges, cfg.DownEdges) {
			pq, cq := prev.EdgeQueues[r], cfg.EdgeQueues[r]
			if len(cq) < len(pq) || !fifoEvolution(pq, cq, false) {
				return fmt.Errorf("audit: step %d: frozen queue on down edge rank %d popped: %v -> %v",
					cfg.Step, r, pq, cq)
			}
		}
	}
	return nil
}

// intersectSortedInts intersects two ascending int slices.
func intersectSortedInts(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func inSomeQueue(queues [][]int, id int) bool {
	for _, q := range queues {
		for _, x := range q {
			if x == id {
				return true
			}
		}
	}
	return false
}

func stayingNode(staying [][]int, id int) int {
	for v, agents := range staying {
		for _, x := range agents {
			if x == id {
				return v
			}
		}
	}
	return -1
}

// fifoEvolution reports whether next can be derived from prev by one
// atomic action: unchanged, its head popped, or one element pushed at
// the tail. With allowReentry (1-node rings) the popped head may also
// reappear as the pushed tail element.
func fifoEvolution(prev, next []int, allowReentry bool) bool {
	eq := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if eq(prev, next) {
		return true
	}
	// Head popped.
	if len(prev) > 0 && eq(prev[1:], next) {
		return true
	}
	// Tail pushed.
	if len(next) == len(prev)+1 && eq(prev, next[:len(prev)]) {
		return true
	}
	// Re-entry: head popped and the same agent pushed at the tail.
	if allowReentry && len(prev) > 0 && len(next) == len(prev) &&
		eq(prev[1:], next[:len(next)-1]) && next[len(next)-1] == prev[0] {
		return true
	}
	return false
}
