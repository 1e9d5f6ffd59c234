package core

import (
	"fmt"

	"agentring/internal/sim"
)

// activeID is the (distance, follower-count) identifier an active agent
// derives in each selection sub-phase (Fig 6): d is the distance from
// its home node to the next active node, fNum the number of follower
// nodes in between. IDs compare lexicographically.
type activeID struct {
	d    int
	fNum int
}

func (a activeID) less(b activeID) bool {
	return a.d < b.d || (a.d == b.d && a.fNum < b.fNum)
}

func (a activeID) equal(b activeID) bool { return a == b }

// deployMsg is the message a leader broadcasts to each follower at the
// start of the deployment phase (Algorithm 3): how many tokens the
// follower must observe to reach the nearest base node, plus the global
// quantities it needs to walk the target schedule. Messages may be of
// any size in the model; this one is O(log n) bits.
type deployMsg struct {
	TBase int // tokens to observe before reaching the base node
	N     int // ring size, learned by leaders in the first sub-phase
	K     int // number of agents
	B     int // number of base nodes
}

// SelectionStats records how an agent left Algorithm 2's selection
// phase; used to validate the ⌈log₂ k⌉ sub-phase bound empirically.
type SelectionStats struct {
	// SubPhases is the number of completed selection sub-phases before
	// the decision.
	SubPhases int
	// Leader reports whether the agent's home became a base node.
	Leader bool
}

// alg2 is the O(log n)-memory algorithm of Section 3.2 (Algorithms 2
// and 3): cooperative base-node selection by repeated halving of the
// active-agent set, then leader/follower deployment.
type alg2 struct {
	k int
	// onDecide, when set, is invoked once as the agent leaves the
	// selection phase. It runs on the agent's goroutine during its
	// atomic action (the engine serializes activations, so plain shared
	// state is safe for collectors).
	onDecide func(SelectionStats)
}

var _ sim.Program = (*alg2)(nil)

// NewAlg2 returns an Algorithm 2+3 program for agents that know k.
func NewAlg2(k int) (sim.Program, error) {
	return NewAlg2Instrumented(k, nil)
}

// NewAlg2Instrumented is NewAlg2 with a selection-phase observation
// hook (may be nil).
func NewAlg2Instrumented(k int, onDecide func(SelectionStats)) (sim.Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadParam, k)
	}
	return &alg2{k: k, onDecide: onDecide}, nil
}

func (p *alg2) decided(subPhases int, leader bool) {
	if p.onDecide != nil {
		p.onDecide(SelectionStats{SubPhases: subPhases, Leader: leader})
	}
}

// alg2Words is the working set Algorithm 2+3 meters: the whole
// algorithm keeps O(1) words — two IDs (4 words), the scratch ID (2), n,
// k, and a handful of counters. No slice of distances is ever stored;
// that is the entire point of Section 3.2.
const alg2Words = 14

// Run implements sim.Program.
func (p *alg2) Run(api sim.API) error {
	api.Meter().Set(alg2Words)

	api.ReleaseToken()

	n := 0 // learned during the first sub-phase circuit
	// Selection phase (Algorithm 2): repeat sub-phases while active.
	for subPhase := 1; ; subPhase++ {
		tokensSeen := 0
		circuit := 0
		own, wrapped := p.nextActive(api, &tokensSeen, &circuit)
		if wrapped {
			// The agent walked the whole ring without meeting another
			// active node: it is the unique active agent; its home is the
			// unique base node. (Algorithm 2 line 6.)
			if n == 0 {
				n = circuit
			}
			p.decided(subPhase, true)
			return p.leader(api, n, own.fNum)
		}
		next, wrapped := p.nextActive(api, &tokensSeen, &circuit)
		identical := own.equal(next)
		min := !next.less(own)
		for !wrapped && tokensSeen < p.k {
			var other activeID
			other, wrapped = p.nextActive(api, &tokensSeen, &circuit)
			if !own.equal(other) {
				identical = false
			}
			if other.less(own) {
				min = false
			}
		}
		if tokensSeen != p.k {
			return fmt.Errorf("%w: circuit ended after %d tokens, want %d", ErrInvariant, tokensSeen, p.k)
		}
		if n == 0 {
			n = circuit
		} else if n != circuit {
			return fmt.Errorf("%w: circuit length changed %d -> %d", ErrInvariant, n, circuit)
		}
		if identical {
			// All remaining active agents share the same ID: their homes
			// satisfy the base-node conditions; everyone becomes a leader.
			// own.d is the distance between adjacent base nodes, so the
			// number of base nodes is n / own.d.
			if own.d <= 0 || n%own.d != 0 {
				return fmt.Errorf("%w: base distance %d does not divide n=%d", ErrInvariant, own.d, n)
			}
			p.decided(subPhase, true)
			return p.leader(api, n, own.fNum)
		}
		if !min || own.equal(next) {
			// Some agent has a strictly smaller ID, or the next active
			// agent ties us: become a follower (Algorithm 2 line 16).
			p.decided(subPhase, false)
			return p.follower(api)
		}
		// Remain active: immediately begin the next sub-phase (the first
		// move happens in this same atomic action, so no visitor can ever
		// observe this agent staying at its home).
	}
}

// nextActive moves forward to the next active node — the next node
// holding a token with no agent staying — returning the distance
// travelled and the number of follower nodes (token + staying agent)
// passed. wrapped is true when the traversal has seen all k tokens,
// i.e. the stop is the agent's own home.
func (p *alg2) nextActive(api sim.API, tokensSeen, circuit *int) (activeID, bool) {
	var id activeID
	for {
		api.Move()
		id.d++
		*circuit++
		if api.TokensHere() == 0 {
			continue
		}
		*tokensSeen++
		if api.AgentsHere() == 0 {
			return id, *tokensSeen == p.k
		}
		id.fNum++
	}
}

// leader executes the leader side of the deployment phase (Algorithm 3):
// walk to the next base node, handing each follower on the way the
// count of tokens separating it from that base node, then halt there.
func (p *alg2) leader(api sim.API, n, fNum int) error {
	b := p.baseCount(api, n, fNum)
	for t := 0; t < fNum; t++ {
		p.moveToNextToken(api)
		api.Broadcast(deployMsg{TBase: fNum - t, N: n, K: p.k, B: b})
	}
	p.moveToNextToken(api) // the next base node: this leader's target
	return nil
}

// baseCount derives the number of base nodes. Between two adjacent base
// nodes there are fNum follower homes, so each of the b segments holds
// fNum+1 of the k homes.
func (p *alg2) baseCount(api sim.API, n, fNum int) int {
	_ = api
	return p.k / (fNum + 1)
}

// moveToNextToken advances to the next node holding a token.
func (p *alg2) moveToNextToken(api sim.API) {
	for {
		api.Move()
		if api.TokensHere() > 0 {
			return
		}
	}
}

// follower executes the follower side of the deployment phase
// (Algorithm 3): wait for the leader's message, walk to the nearest
// base node, then advance target slot by target slot until a vacant one
// is found.
func (p *alg2) follower(api sim.API) error {
	var msg deployMsg
	for {
		msgs := api.AwaitMessages()
		found := false
		for _, raw := range msgs {
			if dm, ok := raw.(deployMsg); ok {
				msg, found = dm, true
				break
			}
		}
		if found {
			break
		}
	}
	if msg.K != p.k {
		return fmt.Errorf("%w: deploy message carries k=%d, agent knows %d", ErrInvariant, msg.K, p.k)
	}
	// Walk to the nearest base node: pass TBase tokens.
	for seen := 0; seen < msg.TBase; {
		api.Move()
		if api.TokensHere() > 0 {
			seen++
		}
	}
	// Walk the target schedule: slot 0 is the base node itself (taken by
	// its leader); check slots 1..k/b-1, wrapping across segments.
	//
	// Asynchrony caveat (a reproduction finding, see EXPERIMENTS.md):
	// the paper's Theorem 4 bounds each follower at 2n moves, but a
	// target slot can coincide with the home of a follower that has been
	// informed yet not scheduled; a passing follower then skips the slot
	// and may need extra laps until the squatter departs. Uniform
	// deployment is still always reached; only the per-follower constant
	// grows. We therefore cap the walk at (k+4)*n and flag anything
	// beyond as a genuine invariant violation.
	perSeg := msg.K / msg.B
	slot := 0
	for walked := 0; walked <= (msg.K+4)*msg.N; {
		step, err := SlotInterval(msg.N, msg.K, msg.B, slot)
		if err != nil {
			return fmt.Errorf("slot schedule: %w", err)
		}
		for i := 0; i < step; i++ {
			api.Move()
		}
		walked += step
		slot = (slot + 1) % perSeg
		if slot == 0 {
			// Arrived at a base node: reserved for its leader, keep going.
			continue
		}
		if api.AgentsHere() == 0 {
			return nil // occupy this target and halt
		}
	}
	return fmt.Errorf("%w: follower found no vacant target within (k+4)n moves", ErrInvariant)
}

// Frame implements sim.Framer: Algorithms 2 and 3 as a resumable state
// machine making the same API-call sequence as Run, one atomic action
// per Step.
func (p *alg2) Frame() sim.Frame { return &alg2Frame{p: p} }

// alg2Frame phases.
const (
	alg2Init   = iota // before the first activation
	alg2Select        // selection: walking to the next active node
	alg2Lead          // leader: walking to the next token node
	alg2Await         // follower: suspended until the deploy message
	alg2ToBase        // follower: passing TBase tokens to the base node
	alg2Slots         // follower: walking the target-slot schedule
)

// alg2Frame is the data-oriented execution of Algorithms 2 and 3. The
// selection state is one nextActive traversal in progress — seg says
// which: 0 finds the agent's own ID, 1 the next active agent's, 2 and up
// the rest of the circuit — plus the sub-phase's running verdict. The
// deployment state is a leader's broadcast count, or a follower's
// message and slot-walk position.
type alg2Frame struct {
	p     *alg2
	phase int

	subPhase, n, tokensSeen, circuit, seg int
	cur, own, next                        activeID
	identical, min                        bool

	msg   deployMsg // follower: the leader's message
	count int       // leader: followers informed; follower: tokens passed toward the base node
	slot  int       // follower: current target slot
	// walked is the follower's slot-walk length so far, including the
	// interval in progress; left is that interval's remaining moves.
	walked, left int
}

func (f *alg2Frame) Step(api sim.API) sim.Action {
	switch f.phase {
	case alg2Init:
		api.Meter().Set(alg2Words)
		api.ReleaseToken()
		f.subPhase = 1
		return f.beginSubPhase()
	case alg2Select:
		if api.TokensHere() == 0 {
			return f.selMove()
		}
		f.tokensSeen++
		if api.AgentsHere() > 0 {
			f.cur.fNum++
			return f.selMove()
		}
		return f.reachedActive(f.tokensSeen == f.p.k)
	case alg2Lead:
		if api.TokensHere() == 0 {
			return sim.Action{Kind: sim.ActionMove}
		}
		if f.count == f.own.fNum {
			return sim.Action{Kind: sim.ActionDone} // the next base node: this leader's target
		}
		fNum := f.own.fNum
		api.Broadcast(deployMsg{TBase: fNum - f.count, N: f.n, K: f.p.k, B: f.p.baseCount(api, f.n, fNum)})
		f.count++
		return sim.Action{Kind: sim.ActionMove}
	case alg2Await:
		for _, raw := range api.Messages() {
			if dm, ok := raw.(deployMsg); ok {
				return f.deploy(api, dm)
			}
		}
		return sim.Action{Kind: sim.ActionAwait}
	case alg2ToBase:
		if api.TokensHere() > 0 {
			f.count++
		}
		if f.count < f.msg.TBase {
			return sim.Action{Kind: sim.ActionMove}
		}
		return f.walkSlots(api, false)
	default: // alg2Slots
		if f.left > 0 {
			f.left--
			return sim.Action{Kind: sim.ActionMove}
		}
		return f.walkSlots(api, true)
	}
}

func (f *alg2Frame) beginSubPhase() sim.Action {
	f.phase = alg2Select
	f.tokensSeen, f.circuit, f.seg, f.cur = 0, 0, 0, activeID{}
	return f.selMove()
}

func (f *alg2Frame) nextTraversal() sim.Action {
	f.seg++
	f.cur = activeID{}
	return f.selMove()
}

func (f *alg2Frame) selMove() sim.Action {
	f.cur.d++
	f.circuit++
	return sim.Action{Kind: sim.ActionMove}
}

// reachedActive continues Run where a nextActive traversal returns,
// inside the activation that found the active node: it folds the
// traversal's ID into the sub-phase verdict, then starts the next
// traversal or settles the sub-phase.
func (f *alg2Frame) reachedActive(wrapped bool) sim.Action {
	p, id := f.p, f.cur
	switch f.seg {
	case 0:
		f.own = id
		if wrapped {
			if f.n == 0 {
				f.n = f.circuit
			}
			p.decided(f.subPhase, true)
			return f.lead()
		}
		return f.nextTraversal()
	case 1:
		f.next = id
		f.identical = f.own.equal(id)
		f.min = !id.less(f.own)
	default:
		if !f.own.equal(id) {
			f.identical = false
		}
		if id.less(f.own) {
			f.min = false
		}
	}
	if !wrapped && f.tokensSeen < p.k {
		return f.nextTraversal()
	}
	if f.tokensSeen != p.k {
		return sim.Action{Kind: sim.ActionDone,
			Err: fmt.Errorf("%w: circuit ended after %d tokens, want %d", ErrInvariant, f.tokensSeen, p.k)}
	}
	if f.n == 0 {
		f.n = f.circuit
	} else if f.n != f.circuit {
		return sim.Action{Kind: sim.ActionDone,
			Err: fmt.Errorf("%w: circuit length changed %d -> %d", ErrInvariant, f.n, f.circuit)}
	}
	if f.identical {
		if f.own.d <= 0 || f.n%f.own.d != 0 {
			return sim.Action{Kind: sim.ActionDone,
				Err: fmt.Errorf("%w: base distance %d does not divide n=%d", ErrInvariant, f.own.d, f.n)}
		}
		p.decided(f.subPhase, true)
		return f.lead()
	}
	if !f.min || f.own.equal(f.next) {
		p.decided(f.subPhase, false)
		// Suspend without reading the inbox: this activation is an
		// arrival, and an arrival's inbox is always empty, so Run's first
		// AwaitMessages suspends at once.
		f.phase = alg2Await
		return sim.Action{Kind: sim.ActionAwait}
	}
	f.subPhase++
	return f.beginSubPhase()
}

func (f *alg2Frame) lead() sim.Action {
	f.phase, f.count = alg2Lead, 0
	return sim.Action{Kind: sim.ActionMove}
}

// deploy starts the follower's walk on receipt of the leader's message.
func (f *alg2Frame) deploy(api sim.API, dm deployMsg) sim.Action {
	if dm.K != f.p.k {
		return sim.Action{Kind: sim.ActionDone,
			Err: fmt.Errorf("%w: deploy message carries k=%d, agent knows %d", ErrInvariant, dm.K, f.p.k)}
	}
	f.msg, f.count = dm, 0
	if dm.TBase > 0 {
		f.phase = alg2ToBase
		return sim.Action{Kind: sim.ActionMove}
	}
	return f.walkSlots(api, false)
}

// walkSlots runs Run's slot loop from an interval boundary. With arrived
// set, the follower has just walked an interval and first checks the
// slot it reached; then it starts the next interval, or fails once the
// (k+4)n cap is spent.
func (f *alg2Frame) walkSlots(api sim.API, arrived bool) sim.Action {
	m := f.msg
	for {
		if arrived {
			f.slot = (f.slot + 1) % (m.K / m.B)
			if f.slot != 0 && api.AgentsHere() == 0 {
				return sim.Action{Kind: sim.ActionDone} // occupy this target and halt
			}
		}
		if f.walked > (m.K+4)*m.N {
			return sim.Action{Kind: sim.ActionDone,
				Err: fmt.Errorf("%w: follower found no vacant target within (k+4)n moves", ErrInvariant)}
		}
		step, err := SlotInterval(m.N, m.K, m.B, f.slot)
		if err != nil {
			return sim.Action{Kind: sim.ActionDone, Err: fmt.Errorf("slot schedule: %w", err)}
		}
		f.walked += step
		arrived = true
		if step > 0 {
			f.phase, f.left = alg2Slots, step-1
			return sim.Action{Kind: sim.ActionMove}
		}
	}
}

// SaveState/LoadState implement sim.FrameSaver (see alg1Frame): the
// phase, the selection counters and IDs, and the deployment state, all
// fixed-width — Algorithm 2 keeps no sequence.
func (f *alg2Frame) SaveState(buf []int) []int {
	return append(buf, f.phase, f.subPhase, f.n, f.tokensSeen, f.circuit, f.seg,
		f.cur.d, f.cur.fNum, f.own.d, f.own.fNum, f.next.d, f.next.fNum,
		boolWord(f.identical), boolWord(f.min),
		f.msg.TBase, f.msg.N, f.msg.K, f.msg.B, f.count, f.slot, f.walked, f.left)
}

func (f *alg2Frame) LoadState(buf []int) int {
	f.phase, f.subPhase, f.n, f.tokensSeen, f.circuit, f.seg = buf[0], buf[1], buf[2], buf[3], buf[4], buf[5]
	f.cur = activeID{d: buf[6], fNum: buf[7]}
	f.own = activeID{d: buf[8], fNum: buf[9]}
	f.next = activeID{d: buf[10], fNum: buf[11]}
	f.identical, f.min = buf[12] != 0, buf[13] != 0
	f.msg = deployMsg{TBase: buf[14], N: buf[15], K: buf[16], B: buf[17]}
	f.count, f.slot, f.walked, f.left = buf[18], buf[19], buf[20], buf[21]
	return 22
}

func boolWord(b bool) int {
	if b {
		return 1
	}
	return 0
}
