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

// DeployMsg is the message a leader broadcasts to each follower at the
// start of the deployment phase (Algorithm 3): how many tokens the
// follower must observe to reach the nearest base node, plus the global
// quantities it needs to walk the target schedule. Messages may be of
// any size in the model; this one is O(log n) bits. It is exported for
// the algorithm's reference form (internal/reference), which must
// broadcast the very type the frame does: state hashes fold a payload
// with its type name.
type DeployMsg struct {
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
	// selection phase, inside that atomic action (the engine serializes
	// activations, so plain shared state is safe for collectors).
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

// baseCount derives the number of base nodes. Between two adjacent base
// nodes there are fNum follower homes, so each of the b segments holds
// fNum+1 of the k homes.
func (p *alg2) baseCount(fNum int) int { return p.k / (fNum + 1) }

// Frame implements sim.Program: Algorithms 2 and 3 as a resumable state
// machine, one atomic action per Step.
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

	msg   DeployMsg // follower: the leader's message
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
		// Selection (Algorithm 2): walk to the next active node — the
		// next token node with no agent staying — counting the follower
		// nodes (token and staying agent) passed.
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
		// The leader side of Algorithm 3: walk to the next base node,
		// handing each follower on the way the count of tokens
		// separating it from that base node, then halt there.
		if api.TokensHere() == 0 {
			return sim.Action{Kind: sim.ActionMove}
		}
		if f.count == f.own.fNum {
			return sim.Action{Kind: sim.ActionDone} // the next base node: this leader's target
		}
		fNum := f.own.fNum
		api.Broadcast(DeployMsg{TBase: fNum - f.count, N: f.n, K: f.p.k, B: f.p.baseCount(fNum)})
		f.count++
		return sim.Action{Kind: sim.ActionMove}
	case alg2Await:
		// The follower side of Algorithm 3: wait for the leader's
		// message, walk to the nearest base node (passing TBase tokens),
		// then advance target slot by target slot to a vacant one.
		for _, raw := range api.Messages() {
			if dm, ok := raw.(DeployMsg); ok {
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

// reachedActive runs inside the activation that found the next active
// node: it folds the traversal's ID into the sub-phase verdict, then
// starts the next traversal or settles the sub-phase.
func (f *alg2Frame) reachedActive(wrapped bool) sim.Action {
	p, id := f.p, f.cur
	switch f.seg {
	case 0:
		f.own = id
		if wrapped {
			// The agent walked the whole ring without meeting another
			// active node: it is the unique active agent, and its home is
			// the unique base node (Algorithm 2 line 6).
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
		// All remaining active agents share the same ID: their homes
		// satisfy the base-node conditions, and everyone becomes a
		// leader. own.d is the distance between adjacent base nodes, so
		// there are n / own.d of them.
		if f.own.d <= 0 || f.n%f.own.d != 0 {
			return sim.Action{Kind: sim.ActionDone,
				Err: fmt.Errorf("%w: base distance %d does not divide n=%d", ErrInvariant, f.own.d, f.n)}
		}
		p.decided(f.subPhase, true)
		return f.lead()
	}
	if !f.min || f.own.equal(f.next) {
		// Some agent has a strictly smaller ID, or the next active agent
		// ties us: become a follower (Algorithm 2 line 16). Suspend
		// without reading the inbox: this activation is an arrival, and
		// an arrival's inbox is always empty.
		p.decided(f.subPhase, false)
		f.phase = alg2Await
		return sim.Action{Kind: sim.ActionAwait}
	}
	// Remain active: the next sub-phase's first move happens in this
	// same atomic action, so no visitor ever sees this agent staying at
	// its home.
	f.subPhase++
	return f.beginSubPhase()
}

func (f *alg2Frame) lead() sim.Action {
	f.phase, f.count = alg2Lead, 0
	return sim.Action{Kind: sim.ActionMove}
}

// deploy starts the follower's walk on receipt of the leader's message.
func (f *alg2Frame) deploy(api sim.API, dm DeployMsg) sim.Action {
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

// walkSlots walks the target schedule from an interval boundary: slot 0
// is the base node itself (taken by its leader), and the follower
// checks slots 1..k/b-1, wrapping across segments. With arrived set, it
// has just walked an interval and first checks the slot it reached;
// then it starts the next interval, or fails once the (k+4)n cap is
// spent.
//
// Asynchrony caveat (a reproduction finding): the paper's Theorem 4
// bounds each follower at 2n moves, but a target slot can coincide with
// the home of a follower that has been informed yet not scheduled; a
// passing follower then skips the slot and may need extra laps until
// the squatter departs. Uniform deployment is still always reached;
// only the per-follower constant grows. Hence the (k+4)n cap, beyond
// which a walk is a genuine invariant violation.
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

// SaveState/LoadState implement sim.Frame (see alg1Frame): the
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
	f.msg = DeployMsg{TBase: buf[14], N: buf[15], K: buf[16], B: buf[17]}
	f.count, f.slot, f.walked, f.left = buf[18], buf[19], buf[20], buf[21]
	return 22
}

func boolWord(b bool) int {
	if b {
		return 1
	}
	return 0
}
