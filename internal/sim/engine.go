package sim

import (
	"errors"
	"fmt"
	"reflect"

	"agentring/internal/memmeter"
	"agentring/internal/ring"
)

// Exported engine errors, matchable with errors.Is.
var (
	// ErrStepLimit means the run did not quiesce within Options.MaxSteps
	// atomic actions — a livelock or an undersized budget.
	ErrStepLimit = errors.New("sim: step limit exceeded before quiescence")
	// ErrBadSetup covers invalid engine construction arguments.
	ErrBadSetup = errors.New("sim: invalid setup")
)

// errStopped is the sentinel panic raised inside blocked API calls when
// the engine shuts down after quiescence; the coroutine adapter
// recovers it and treats the agent as cleanly retired while suspended.
var errStopped = errors.New("sim: engine stopped")

// Options configures an Engine.
type Options struct {
	// Scheduler decides the interleaving. Defaults to round-robin.
	Scheduler Scheduler
	// MaxSteps bounds the number of atomic actions. Zero selects a
	// generous default proportional to n*k.
	MaxSteps int
	// Sink, if non-nil, receives every execution event as it happens:
	// a *Trace to buffer a bounded tail, a FuncSink to stream to a live
	// subscriber, a TeeSink for both.
	Sink TraceSink
	// Observer, if non-nil, receives a full configuration snapshot
	// before the first atomic action and after every one. Snapshots are
	// O(n + k) to build, so observers are meant for tests and tools, not
	// hot paths.
	Observer Observer
	// Faults schedules link-state mutations applied between atomic
	// actions, making the edge set dynamic (see FaultSchedule for the
	// frozen-FIFO semantics of failed links). Events are applied in
	// Step order; an empty schedule leaves the engine on the static
	// topology with zero overhead in the stepping loop.
	Faults FaultSchedule
	// Adversary, if non-nil, makes link failures and repairs *choices*
	// offered at every decision point instead of a fixed timeline: see
	// AdversaryBudget for the budget semantics and the deterministic
	// choice order. Mutually exclusive with Faults.
	Adversary *AdversaryBudget
	// TrackState, if set, maintains a per-agent canonical hash of the
	// agent's complete observation history (every value its program read
	// through the API) and pending mailbox contents, surfaced as
	// Configuration.AgentHashes, and keeps the configuration key
	// (Configuration.Key) current after every mutation, so StateKey is a
	// field read. Programs are deterministic functions of their
	// observations, so equal hashes identify equal internal program
	// states; the schedule-space explorer relies on this to recognize
	// converged branches. Off by default: hashing message payloads costs
	// a formatting pass per delivery.
	TrackState bool
}

// Engine drives one execution of a set of agent programs on a topology
// (a unidirectional ring by default; see Topology). An Engine is
// single-use: construct, Run once, inspect the Result.
//
// The engine is data-oriented: all per-agent state lives in flat
// parallel arrays (struct-of-arrays — see the "agent tables" block
// below), the enabled sets are hierarchical word bitsets (bitset.go),
// and a step touches a handful of contiguous words instead of chasing
// per-agent heap objects. The engine never rescans the topology: the
// whole edge set is flattened into dense rank-indexed arrays at
// construction (edgeTable), so the steady-state loop performs no
// Topology interface calls and allocates nothing.
//
// Under the default round-robin scheduler the engine additionally skips
// choice-list materialization entirely: the ready bitset holds exactly
// the enabled agents once every agent has started, and the round-robin
// pick is a cyclic next-set-bit query (see Run). Other schedulers get
// the same deterministic choice list as before, rebuilt per step from
// the bitsets into a reused buffer.
//
// The edge set can be made dynamic: Options.Faults (or SetEdgeState)
// fails and repairs individual directed edges between atomic actions,
// with the frozen-FIFO semantics documented on FaultSchedule. The
// static tables never rebuild — a failed edge is a bit in a rank
// bitset, and freezing/repairing an edge just removes or re-adds its
// queue head in the ready set.
type Engine struct {
	et       *edgeTable
	sched    Scheduler
	maxStep  int
	sink     TraceSink
	observer Observer
	track    bool // Options.TrackState

	// The configuration itself: everything an atomic action, a fault,
	// an adversary move or a restore changes. Its fields are promoted,
	// so the hot loop reads e.node, e.qhead and so on directly.
	engineState

	// Per-agent tables outside the configuration: fixed at construction
	// (home, frame) or execution machinery (the API arena). Mailboxes
	// change with every broadcast but stay here: a Checkpoint stores
	// them flattened instead of copying engineState's way. A mailbox is
	// non-nil exactly while its agent is in wakeable: Broadcast sets
	// both, a wake clears both, and arrivals carry no mail.
	home    []ring.NodeID
	mailbox [][]Message
	frame   []Frame      // every agent's frame: a Framer's own or a coroutine adapter
	savers  []FrameSaver // the frames as FrameSavers; nil unless every agent has one
	apis    []apiState   // the per-agent API arena (one backing array)
	choices []Choice     // the reused buffer enabledChoices returns

	// The step-ordered fault schedule (engineState.faultIdx is its
	// cursor) and the online adversary's immutable budget with the
	// rank -> (tail node, out-port) tables its choices are built from.
	faults  FaultSchedule
	adv     *AdversaryBudget
	advSrc  []int32
	advPort []int32
}

// engineState is the engine's mutable configuration between atomic
// actions, declared once: Engine embeds it and a Checkpoint holds a
// copy, both allocated by layout and written by copyState. Every int32
// table is a view into one arena (i32), and every uint64 table and
// every bitset's words a view into another (u64), so copyState copies
// each arena whole. A new table joins layout: as a view when its
// elements are int32 or uint64 words, otherwise as its own allocation,
// which copyState then copies by name; a new scalar joins copyState.
type engineState struct {
	i32 []int32  // backs every []int32 table below
	u64 []uint64 // backs every []uint64 table and every bitset below

	tokens []int // per-node indelible token counts (the T component)

	// Agent tables: parallel arrays indexed by agent id. The hot loop
	// reads node/status/qrank/qnext and the queue links; everything an
	// activation rarely touches (meter, error) sits in separate arrays
	// so it stays out of the touched cache lines.
	node     []ring.NodeID // current (or last) node
	status   []Status
	inRank   []int32 // arrival rank of the last traversed edge, -1 before the first move
	qrank    []int32 // rank of the queue the agent occupies, -1 when staying
	qnext    []int32 // successor in the agent's FIFO queue, -1 at the tail
	stayNext []int32 // intrusive per-node staying list links
	stayPrev []int32
	moves    []int32
	obsHash  []uint64 // folded observation history (Options.TrackState)
	mailHash []uint64 // folded pending mailbox payloads
	meter    []memmeter.Meter
	agentErr []error
	failed   int // how many agentErr entries are non-nil (copyState skips the table while both sides have none)

	// The per-edge link FIFOs are intrusive singly-linked lists over
	// agent ids, indexed by the edge's arrival rank: qhead/qtail per
	// rank, qnext per agent. An agent occupies at most one queue at a
	// time, so a single next-pointer array serves every queue and
	// push/pop never allocate.
	qhead []int32 // per edge rank: first agent in transit along it, -1 if none
	qtail []int32 // per edge rank: last agent in transit along it, -1 if none

	// stayHead heads the intrusive doubly-linked list of waiting/halted
	// agents per node (stayNext/stayPrev above), replacing the per-node
	// []int slices: co-location queries stay O(co-located agents) and
	// the per-node footprint drops to one int32.
	stayHead []int32

	occupied bitset // edge ranks with non-empty queues
	wakeable bitset // waiting agents with non-empty mailboxes
	// ready holds the agent ids the round-robin fast path picks from:
	// the heads of occupied *up* edges plus the wakeable agents. Once
	// initNodes drains this is exactly the enabled-agent set (each
	// enabled choice names a distinct agent: arrival heads are
	// in-transit, wakeable agents are waiting); while init suppression
	// is active it is a superset, so the fast path stays off until then.
	ready bitset

	// The paper's initial configuration puts each agent in the incoming
	// buffer of its home node, guaranteeing it takes the first atomic
	// action there. On an in-degree-1 topology the node's single link
	// FIFO provides that for free (visitors queue behind the resident),
	// but with several incoming links a visitor on another edge could
	// slip past, so the home buffer is modeled explicitly: initPending
	// holds each node's not-yet-activated resident, and arrivals into a
	// node are suppressed until its resident has acted. initNodes keeps
	// the pending home nodes; once it drains (after at most k steps)
	// enabledChoices takes the init-free fast path.
	initPending []int32 // per node: resident agent awaiting first activation, -1 if none
	initNodes   bitset  // nodes with a pending resident

	// Dynamic-edge state. The edge table itself is immutable; a failed
	// edge is marked in down (a rank bitset that edgeDown reads only
	// while downCount > 0, so static runs never touch it) and its queue
	// freezes: the head's arrival leaves the enabled set while pushes
	// still append. epoch counts effective mutations; faultIdx is the
	// cursor into the engine's step-ordered fault schedule.
	down      bitset
	downCount int
	epoch     int
	faultIdx  int

	// Online-adversary state (Options.Adversary; empty otherwise): how
	// many fails have been spent and when each down link failed. It is
	// folded into StateKey as the fail count plus per-link *relative*
	// outage ages, so states reached at different depths still converge.
	advFails  int
	advDownAt []int32 // per rank: step count just after the fail; -1 when up

	steps     int
	sent      int
	delivered int
	quiesced  bool // the last decision point had no enabled action

	// The configuration key (Options.TrackState only): the XOR of every
	// term of Configuration.Key except the adversary's, which StateKey
	// folds at read time. Every site that mutates a keyed component
	// updates it in the same step (the list is in doc.go, "State
	// identity"); aterm caches each agent's current term, so replacing
	// it needs no recomputation of the old one.
	key   uint64
	aterm []uint64
}

// layout allocates s's tables for n nodes, k agents and m edges: the
// int32 and uint64 tables and the words of every bitset as views into
// the two arenas, the typed tables on their own. The state-tracking
// tables exist only under track, the adversary's only under adv.
// NewEngine lays out the engine, CheckpointTo a checkpoint of another
// shape, so layout starts from the zero state. The views are cut twice:
// the first pass, without arenas, only measures them.
func (s *engineState) layout(n, k, m int, track, adv bool) {
	*s = engineState{}
	var a32 carver[int32]
	var a64 carver[uint64]
	for measured := false; ; measured = true {
		s.inRank, s.qrank, s.qnext = a32.take(k), a32.take(k), a32.take(k)
		s.stayNext, s.stayPrev, s.moves = a32.take(k), a32.take(k), a32.take(k)
		s.qhead, s.qtail = a32.take(m), a32.take(m)
		s.stayHead, s.initPending = a32.take(n), a32.take(n)
		if adv {
			s.advDownAt = a32.take(m)
		}
		if track {
			s.obsHash, s.mailHash, s.aterm = a64.take(k), a64.take(k), a64.take(k)
		}
		s.occupied.carve(m, &a64)
		s.wakeable.carve(k, &a64)
		s.ready.carve(k, &a64)
		s.initNodes.carve(n, &a64)
		s.down.carve(m, &a64)
		if measured {
			break
		}
		a32 = carver[int32]{arena: make([]int32, a32.used)}
		a64 = carver[uint64]{arena: make([]uint64, a64.used)}
	}
	s.i32, s.u64 = a32.arena, a64.arena
	s.tokens = make([]int, n)
	s.node = make([]ring.NodeID, k)
	s.status = make([]Status, k)
	s.meter = make([]memmeter.Meter, k)
	s.agentErr = make([]error, k)
}

// carver cuts consecutive views out of an arena, each capped at its own
// length. Without an arena it hands out nil views and only counts.
type carver[T any] struct {
	arena []T
	used  int
}

func (c *carver[T]) take(l int) []T {
	c.used += l
	if c.arena == nil {
		return nil
	}
	return c.arena[c.used-l : c.used : c.used]
}

// NewEngine builds an engine for k agents with the given distinct home
// nodes and per-agent programs on the given topology (pass a *ring.Ring
// for the paper's unidirectional ring). Tokens are engine state,
// released by the programs themselves.
func NewEngine(t Topology, homes []ring.NodeID, programs []Program, opts Options) (*Engine, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadSetup)
	}
	// Guard typed-nil pointers (a nil *ring.Ring in the interface).
	if rv := reflect.ValueOf(t); rv.Kind() == reflect.Pointer && rv.IsNil() {
		return nil, fmt.Errorf("%w: nil topology", ErrBadSetup)
	}
	et, err := buildEdgeTable(t)
	if err != nil {
		return nil, err
	}
	k, n := len(homes), et.n
	if k == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrBadSetup)
	}
	if k != len(programs) {
		return nil, fmt.Errorf("%w: %d homes but %d programs", ErrBadSetup, k, len(programs))
	}
	if k > n {
		return nil, fmt.Errorf("%w: %d agents exceed %d nodes", ErrBadSetup, k, n)
	}
	seen := make(map[ring.NodeID]bool, k)
	for i, h := range homes {
		if h < 0 || int(h) >= n {
			return nil, fmt.Errorf("%w: home %d out of range", ErrBadSetup, h)
		}
		if seen[h] {
			return nil, fmt.Errorf("%w: duplicate home node %d", ErrBadSetup, h)
		}
		if programs[i] == nil {
			return nil, fmt.Errorf("%w: nil program for agent %d", ErrBadSetup, i)
		}
		seen[h] = true
	}
	sched := opts.Scheduler
	if sched == nil {
		sched = NewRoundRobin()
	}
	maxStep := opts.MaxSteps
	if maxStep == 0 {
		// The costliest algorithm makes O(14 n) moves per agent plus
		// wake-ups; 1000 + 400*n*k covers everything with a wide margin.
		maxStep = 1000 + 400*n*k
	}
	m := et.edges()
	e := &Engine{
		et:       et,
		sched:    sched,
		maxStep:  maxStep,
		sink:     opts.Sink,
		observer: opts.Observer,
		track:    opts.TrackState,
		home:     make([]ring.NodeID, k),
		mailbox:  make([][]Message, k),
		frame:    make([]Frame, k),
		savers:   make([]FrameSaver, k),
		apis:     make([]apiState, k),
		choices:  make([]Choice, 0, 2*k),
	}
	e.layout(n, k, m, opts.TrackState, opts.Adversary != nil)
	if len(opts.Faults) > 0 {
		if err := opts.Faults.validate(et); err != nil {
			return nil, err
		}
		e.faults = opts.Faults.sorted()
	}
	if opts.Adversary != nil {
		if err := e.initAdversary(*opts.Adversary); err != nil {
			return nil, err
		}
	}
	for i := 0; i < m; i++ {
		e.qhead[i], e.qtail[i] = -1, -1
	}
	for v := 0; v < n; v++ {
		e.initPending[v] = -1
		e.stayHead[v] = -1
	}
	for i := range homes {
		e.home[i] = homes[i]
		e.node[i] = homes[i]
		e.status[i] = StatusInTransit // in the home node's incoming buffer
		e.inRank[i] = -1
		e.qrank[i] = -1
		e.apis[i] = apiState{e: e, id: i}
		if fr, ok := programs[i].(Framer); ok {
			e.frame[i] = fr.Frame()
		} else {
			c := &coroFrame{run: programs[i].Run}
			e.frame[i], e.apis[i].coro = c, c
		}
		if fs, ok := e.frame[i].(FrameSaver); ok && e.savers != nil {
			e.savers[i] = fs
		} else {
			e.savers = nil
		}
		// The initial configuration stores each agent in the incoming
		// buffer of its home node, which blocks link arrivals into that
		// node until the resident has taken its first atomic action —
		// the paper's "each agent acts first at its home" assumption,
		// which on the ring coincides with sitting at the head of the
		// node's single link FIFO.
		e.initPending[homes[i]] = int32(i)
		e.initNodes.add(int(homes[i]))
		if e.track {
			e.rekeyAgent(i)
		}
	}
	return e, nil
}

// Run executes until quiescence (no enabled atomic action) and returns
// the outcome. It is an error for any agent program to fail or for the
// step limit to be reached.
//
// Each decision goes through the step API: DecisionPoint fires due
// faults and lists the enabled actions, the scheduler picks one, and
// ApplyChoice executes it. Under a round-robin scheduler, once every
// agent has taken its first home activation, Run first takes a fast
// path that never materializes the choice list: the ready bitset is
// exactly the enabled-agent set, and the round-robin pick — the minimum
// cyclic distance from the last scheduled agent — is the cyclic next
// set bit after it. The fast path hands every boundary condition (a due
// fault, the step limit, a drained ready set) to the next decision,
// which alone decides quiescence; both paths share the scheduler's
// cursor, so the interleaving is bit-identical to picking from the
// materialized list.
func (e *Engine) Run() (Result, error) {
	var runErr error
	if e.observer != nil {
		e.observer(e.snapshot())
	}
	rr, fast := e.sched.(*RoundRobin)
	// Observers see every step, and adversary moves exist only as
	// materialized choices: both keep Run on the decision loop.
	fast = fast && e.observer == nil && e.adv == nil
	for {
		if fast && e.initNodes.count == 0 {
			if err := e.runFast(rr); err != nil {
				runErr = err
				break
			}
		}
		choices := e.DecisionPoint()
		if len(choices) == 0 {
			break
		}
		if e.steps >= e.maxStep {
			runErr = fmt.Errorf("%w (limit %d)", ErrStepLimit, e.maxStep)
			break
		}
		pick := e.sched.Pick(e.steps, choices)
		if pick == PickStop {
			break
		}
		if pick < 0 || pick >= len(choices) {
			runErr = fmt.Errorf("%w: scheduler picked %d of %d choices", ErrBadSetup, pick, len(choices))
			break
		}
		if err := e.ApplyChoice(choices[pick]); err != nil {
			runErr = err
			break
		}
		if e.observer != nil {
			e.observer(e.snapshot())
		}
	}
	e.shutdown()
	res := e.result()
	if runErr == nil {
		for id, err := range e.agentErr {
			if err != nil {
				runErr = fmt.Errorf("agent %d: %w", id, err)
				break
			}
		}
	}
	return res, runErr
}

// runFast is the round-robin steady-state loop: pick the cyclic next
// ready agent, activate it, repeat — no choice list, no interface call
// into the scheduler. It returns (for Run's generic loop to arbitrate)
// before any decision point where a fault is due, the step limit is
// reached, or no agent is enabled.
func (e *Engine) runFast(rr *RoundRobin) error {
	for e.ready.count > 0 && e.steps < e.maxStep {
		if e.faultIdx < len(e.faults) && e.faults[e.faultIdx].Step <= e.steps {
			return nil
		}
		id := e.ready.nextCyclic(rr.last + 1)
		rr.last = id
		var err error
		if e.wakeable.has(id) {
			err = e.activateWake(id)
		} else {
			err = e.activateArrival(id, int(e.qrank[id]))
		}
		if err != nil {
			return err
		}
		e.steps++
	}
	return nil
}

// enabledChoices rebuilds the enabled-action list from the incremental
// bitsets in the same deterministic order the schedulers are specified
// against: arrivals (and initial home activations, which displace the
// arrivals into their node) by destination node ascending — with ties
// among a node's several in-edges broken by edge id — then wakes by
// agent index ascending. The backing array is reused across steps, and
// the init merge disappears entirely once every agent has started.
//
// Failed edges are skipped: their heads stay frozen in the queue and
// re-enter the enabled set, in the same rank position, when the edge is
// repaired.
func (e *Engine) enabledChoices() []Choice {
	out := e.choices[:0]
	if e.initNodes.count == 0 {
		if e.downCount == 0 {
			for r := e.occupied.next(0); r != -1; r = e.occupied.next(r + 1) {
				out = append(out, Choice{
					Kind:  ChoiceArrival,
					Agent: int(e.qhead[r]),
					Node:  ring.NodeID(e.et.rankDest[r]),
					Edge:  r,
				})
			}
		} else {
			for r := e.occupied.next(0); r != -1; r = e.occupied.next(r + 1) {
				if e.down.has(r) {
					continue
				}
				out = append(out, Choice{
					Kind:  ChoiceArrival,
					Agent: int(e.qhead[r]),
					Node:  ring.NodeID(e.et.rankDest[r]),
					Edge:  r,
				})
			}
		}
	} else {
		r := e.occupied.next(0)
		for v := e.initNodes.next(0); v != -1; v = e.initNodes.next(v + 1) {
			for r != -1 && int(e.et.rankDest[r]) < v {
				if !e.edgeDown(r) {
					out = append(out, Choice{
						Kind:  ChoiceArrival,
						Agent: int(e.qhead[r]),
						Node:  ring.NodeID(e.et.rankDest[r]),
						Edge:  r,
					})
				}
				r = e.occupied.next(r + 1)
			}
			// The resident's first activation is the node's only enabled
			// action: link arrivals into v stay suppressed behind it.
			out = append(out, Choice{Kind: ChoiceArrival, Agent: int(e.initPending[v]), Node: ring.NodeID(v), Edge: -1})
			for r != -1 && int(e.et.rankDest[r]) == v {
				r = e.occupied.next(r + 1)
			}
		}
		for ; r != -1; r = e.occupied.next(r + 1) {
			if e.edgeDown(r) {
				continue
			}
			out = append(out, Choice{
				Kind:  ChoiceArrival,
				Agent: int(e.qhead[r]),
				Node:  ring.NodeID(e.et.rankDest[r]),
				Edge:  r,
			})
		}
	}
	for id := e.wakeable.next(0); id != -1; id = e.wakeable.next(id + 1) {
		out = append(out, Choice{Kind: ChoiceWake, Agent: id, Node: e.node[id], Edge: -1})
	}
	e.choices = out
	return out
}

// enqueue appends agent id to the FIFO of the rank-r edge, registering
// the edge as occupied — and its new head as ready, when the edge is up
// — if its queue was empty.
func (e *Engine) enqueue(r, id int) {
	if e.track {
		e.key ^= queueTerm(queueSeed(r), id, int(e.qtail[r]))
	}
	if e.qhead[r] == -1 {
		e.qhead[r] = int32(id)
		e.occupied.add(r)
		if !e.edgeDown(r) {
			e.ready.add(id)
		}
	} else {
		e.qnext[e.qtail[r]] = int32(id)
	}
	e.qtail[r] = int32(id)
	e.qnext[id] = -1
	e.qrank[id] = int32(r)
}

// dequeue pops the head of the FIFO of the rank-r edge, deregistering
// the edge when its queue drains and promoting the next agent into the
// ready set otherwise.
func (e *Engine) dequeue(r int) int {
	id := e.qhead[r]
	if e.track {
		seed := queueSeed(r)
		e.key ^= queueTerm(seed, int(id), -1)
		if next := int(e.qnext[id]); next != -1 {
			e.key ^= queueTerm(seed, next, int(id)) ^ queueTerm(seed, next, -1)
		}
	}
	e.qhead[r] = e.qnext[id]
	e.ready.remove(int(id))
	e.qrank[id] = -1
	if e.qhead[r] == -1 {
		e.qtail[r] = -1
		e.occupied.remove(r)
	} else if !e.edgeDown(r) {
		e.ready.add(int(e.qhead[r]))
	}
	return int(id)
}

// queueSnapshot copies the FIFO of the rank-r edge, head first.
func (e *Engine) queueSnapshot(r int) []int {
	var out []int
	for id := e.qhead[r]; id != -1; id = e.qnext[id] {
		out = append(out, int(id))
	}
	return out
}

// addStaying links agent id into its node's staying list. Insertion
// order (here: LIFO) is invisible: every consumer — co-location counts,
// broadcast fan-out, snapshot building — is order-independent.
func (e *Engine) addStaying(id int) {
	v := e.node[id]
	h := e.stayHead[v]
	e.stayNext[id] = h
	e.stayPrev[id] = -1
	if h != -1 {
		e.stayPrev[h] = int32(id)
	}
	e.stayHead[v] = int32(id)
}

func (e *Engine) removeStaying(id int) {
	if prev := e.stayPrev[id]; prev == -1 {
		e.stayHead[e.node[id]] = e.stayNext[id]
	} else {
		e.stayNext[prev] = e.stayNext[id]
	}
	if next := e.stayNext[id]; next != -1 {
		e.stayPrev[next] = e.stayPrev[id]
	}
}

// activate performs one atomic action for the chosen agent (the generic
// decision loop's entry; the fast path calls the kind-specific forms
// directly).
func (e *Engine) activate(c Choice) error {
	switch c.Kind {
	case ChoiceArrival:
		if c.Edge == -1 {
			// First activation out of the home buffer: a residency, not
			// a link traversal (ArrivalPort stays -1), which unblocks
			// link arrivals into the node.
			if int(c.Node) >= len(e.initPending) || e.initPending[c.Node] != int32(c.Agent) {
				return fmt.Errorf("%w: init choice desynchronized", ErrBadSetup)
			}
			e.initPending[c.Node] = -1
			e.initNodes.remove(int(c.Node))
			e.traceEvent(c.Agent, "arrive", "")
			return e.finishAction(c.Agent, false)
		}
		if c.Edge < 0 || c.Edge >= e.et.edges() || e.qhead[c.Edge] != int32(c.Agent) {
			return fmt.Errorf("%w: arrival choice desynchronized", ErrBadSetup)
		}
		return e.activateArrival(c.Agent, c.Edge)
	case ChoiceWake:
		return e.activateWake(c.Agent)
	case ChoiceFail, ChoiceRepair:
		return e.activateAdversary(c)
	default:
		return fmt.Errorf("%w: unknown choice kind %d", ErrBadSetup, c.Kind)
	}
}

// activateArrival pops agent id off the rank-r edge it heads and runs
// one atomic action at the destination.
func (e *Engine) activateArrival(id, r int) error {
	e.dequeue(r)
	e.node[id] = ring.NodeID(e.et.rankDest[r])
	e.inRank[id] = int32(r)
	e.traceEvent(id, "arrive", "")
	return e.finishAction(id, false)
}

// activateWake delivers a staying agent's mailbox and runs one atomic
// action in place.
func (e *Engine) activateWake(id int) error {
	e.wakeable.remove(id)
	e.ready.remove(id)
	e.traceEvent(id, "wake", "")
	return e.finishAction(id, true)
}

// finishAction is steps 2-4 of the atomic action: deliver all queued
// messages, run one Step of the agent's frame (stepAgent), and apply
// the outcome. It ends by refreshing the agent's key term: the action
// changed its observation hash and mailbox, and possibly its status and
// staying node.
func (e *Engine) finishAction(id int, wasStaying bool) error {
	// Step 2: deliver all queued messages. Whatever the program does not
	// read is consumed anyway. (Arrivals always find an empty mailbox —
	// only staying agents receive broadcasts — so this is free on the
	// steady-state path.)
	if mb := e.mailbox[id]; mb != nil {
		e.delivered += len(mb)
		e.apis[id].inbox = mb
		e.mailbox[id] = nil
		if e.track {
			e.mailHash[id] = 0
		}
	}

	act := e.stepAgent(id)
	// Unconsumed messages vanish at the end of the atomic action.
	e.apis[id].inbox = nil
	var err error
	switch act.Kind {
	case ActionMove:
		// stepAgent validated the port, so the lookup cannot go out of
		// bounds.
		r := int(e.et.rank[int(e.et.start[e.node[id]])+act.Port])
		e.moves[id]++
		e.status[id] = StatusInTransit
		if wasStaying {
			e.removeStaying(id)
		}
		e.enqueue(r, id)
		if e.sink != nil {
			detail := ""
			if act.Port != 0 {
				detail = fmt.Sprintf("via port %d", act.Port)
			}
			e.traceEvent(id, "move", detail)
		}
	case ActionAwait:
		e.status[id] = StatusWaiting
		if !wasStaying {
			e.addStaying(id)
		}
		e.traceEvent(id, "await", "")
	default: // ActionDone: stepAgent returns no other kind
		e.status[id] = StatusHalted
		if !wasStaying {
			e.addStaying(id)
		}
		e.traceEvent(id, "halt", "")
		if act.Err != nil {
			e.agentErr[id] = act.Err
			e.failed++
			err = fmt.Errorf("agent %d failed: %w", id, act.Err)
		}
	}
	if e.track {
		e.rekeyAgent(id)
	}
	return err
}

// rekeyAgent replaces agent id's term in the configuration key with one
// computed from its current state.
func (e *Engine) rekeyAgent(id int) {
	node := -1
	if e.status[id] != StatusInTransit {
		node = int(e.node[id])
	}
	t := agentTerm(id, e.status[id], node, fold(e.obsHash[id], e.mailHash[id]))
	e.key ^= e.aterm[id] ^ t
	e.aterm[id] = t
}

// stepAgent runs one Step of agent id's frame and vets the Action it
// returns. It is the one place an action's end is checked and hashed,
// for a Framer's frame and the coroutine adapter alike: a panic (which
// the adapter's next re-raises from Run), an out-of-range port and an
// unknown kind each become ActionDone with a program error, and a move
// or a wait folds its opMove/opAwait opcode after every observation the
// action made.
func (e *Engine) stepAgent(id int) (act Action) {
	defer func() {
		if r := recover(); r != nil {
			act = Action{Kind: ActionDone, Err: fmt.Errorf("program panic: %v", r)}
		}
	}()
	act = e.frame[id].Step(&e.apis[id])
	switch act.Kind {
	case ActionMove:
		if deg := e.et.outDegree(e.node[id]); act.Port < 0 || act.Port >= deg {
			return Action{Kind: ActionDone, Err: fmt.Errorf("program panic: move via port %d at node with out-degree %d", act.Port, deg)}
		}
		if e.track {
			e.obsHash[id] = fold(fold(e.obsHash[id], opMove), uint64(act.Port))
		}
	case ActionAwait:
		if e.track {
			e.obsHash[id] = fold(e.obsHash[id], opAwait)
		}
	case ActionDone:
	default:
		return Action{Kind: ActionDone, Err: fmt.Errorf("frame returned unknown action kind %d", act.Kind)}
	}
	return act
}

// shutdown stops every started coroutine adapter: a Run parked in a
// blocking call at quiescence unwinds via the errStopped sentinel, and
// the agent keeps the state it was suspended in. Framer frames have
// nothing to unwind.
func (e *Engine) shutdown() {
	for i := range e.apis {
		if c := e.apis[i].coro; c != nil && c.stop != nil {
			c.stop()
		}
	}
}

func (e *Engine) traceEvent(id int, kind, detail string) {
	if e.sink != nil {
		e.sink.Record(Event{Step: e.steps, Agent: id, Node: e.node[id], Kind: kind, Detail: detail})
	}
}

// apiState implements API for one agent. The engine allocates all k of
// them in one backing array (the API arena): frame agents carry no
// other per-activation state, so the steady-state loop creates nothing.
type apiState struct {
	e     *Engine
	id    int
	inbox []Message
	coro  *coroFrame // the agent's coroutine adapter; nil for a Framer's frame
}

var _ API = (*apiState)(nil)

// suspend ends a coroutine agent's action with act: the adapter's Step
// returns act, and suspend returns when the next Step resumes Run.
func (p *apiState) suspend(act Action) {
	if p.coro == nil {
		// A Frame called a blocking API method: there is no coroutine to
		// suspend. stepAgent recovers this panic as a program error.
		panic(fmt.Errorf("frame agent called a blocking API method"))
	}
	if !p.coro.yield(act) {
		panic(errStopped)
	}
}

// Move implements API.
func (p *apiState) Move() { p.MoveVia(0) }

// MoveVia implements API. stepAgent checks the port.
func (p *apiState) MoveVia(port int) { p.suspend(Action{Kind: ActionMove, Port: port}) }

// OutDegree implements API.
func (p *apiState) OutDegree() int {
	deg := p.e.et.outDegree(p.e.node[p.id])
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opOutDegree), uint64(deg))
	}
	return deg
}

// ArrivalPort implements API.
func (p *apiState) ArrivalPort() int {
	port := -1
	if r := p.e.inRank[p.id]; r >= 0 {
		port = int(p.e.et.rankRev[r])
	}
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opArrivalPort), uint64(port+1))
	}
	return port
}

// ReleaseToken implements API.
func (p *apiState) ReleaseToken() {
	v := int(p.e.node[p.id])
	if p.e.track {
		p.e.obsHash[p.id] = fold(p.e.obsHash[p.id], opRelease)
		t := p.e.tokens[v]
		p.e.key ^= tokenTerm(v, t) ^ tokenTerm(v, t+1)
	}
	p.e.tokens[v]++
	p.e.traceEvent(p.id, "token", "")
}

// TokensHere implements API.
func (p *apiState) TokensHere() int {
	t := p.e.tokens[p.e.node[p.id]]
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opTokens), uint64(t))
	}
	return t
}

// AgentsHere implements API.
func (p *apiState) AgentsHere() int {
	count := 0
	for id := p.e.stayHead[p.e.node[p.id]]; id != -1; id = p.e.stayNext[id] {
		if int(id) != p.id {
			count++
		}
	}
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opAgents), uint64(count))
	}
	return count
}

// Broadcast implements API.
func (p *apiState) Broadcast(msg Message) {
	e := p.e
	e.sent++
	var payload uint64
	if e.track {
		payload = hashPayload(msg)
		e.obsHash[p.id] = fold(fold(e.obsHash[p.id], opBroadcast), payload)
	}
	for id := e.stayHead[e.node[p.id]]; id != -1; id = e.stayNext[id] {
		if int(id) == p.id {
			continue
		}
		// Halted agents never change state again; messages to them are
		// sent but ignored (the model permits sending, the recipient just
		// never reacts).
		if e.status[id] == StatusWaiting {
			if len(e.mailbox[id]) == 0 {
				e.wakeable.add(int(id))
				e.ready.add(int(id))
			}
			e.mailbox[id] = append(e.mailbox[id], msg)
			if e.track {
				e.mailHash[id] = fold(e.mailHash[id], payload)
				e.rekeyAgent(int(id))
			}
		}
	}
	e.traceEvent(p.id, "broadcast", "")
}

// Messages implements API.
func (p *apiState) Messages() []Message {
	out := p.inbox
	p.inbox = nil
	if p.e.track {
		h := fold(fold(p.e.obsHash[p.id], opMessages), uint64(len(out)))
		for _, m := range out {
			h = fold(h, hashPayload(m))
		}
		p.e.obsHash[p.id] = h
	}
	return out
}

// AwaitMessages implements API.
func (p *apiState) AwaitMessages() []Message {
	if len(p.inbox) > 0 {
		return p.Messages()
	}
	p.suspend(Action{Kind: ActionAwait})
	return p.Messages()
}

// Meter implements API.
func (p *apiState) Meter() *memmeter.Meter { return &p.e.meter[p.id] }
