package reference

import (
	"fmt"

	"agentring/internal/core"
)

// activeID is the (distance, follower-count) identifier an active agent
// derives in each selection sub-phase (Fig 6). IDs compare
// lexicographically.
type activeID struct {
	d    int
	fNum int
}

func (a activeID) less(b activeID) bool {
	return a.d < b.d || (a.d == b.d && a.fNum < b.fNum)
}

// Alg2 is Algorithms 2 and 3 (Section 3.2) for agents that know k:
// cooperative base-node selection by repeated halving of the active
// set, then leader/follower deployment. onDecide, if non-nil, is called
// once as the agent leaves the selection phase, where
// core.NewAlg2Instrumented's frame calls its hook.
func Alg2(k int, onDecide func(core.SelectionStats)) Func {
	decided := func(subPhases int, leader bool) {
		if onDecide != nil {
			onDecide(core.SelectionStats{SubPhases: subPhases, Leader: leader})
		}
	}
	// nextActive moves forward to the next active node — the next node
	// holding a token with no agent staying — returning the distance
	// travelled and the number of follower nodes (token + staying agent)
	// passed. wrapped is true when the traversal has seen all k tokens,
	// i.e. the stop is the agent's own home.
	nextActive := func(api API, tokensSeen, circuit *int) (activeID, bool) {
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
				return id, *tokensSeen == k
			}
			id.fNum++
		}
	}
	// leader is the leader side of the deployment phase (Algorithm 3):
	// walk to the next base node, handing each follower on the way the
	// count of tokens separating it from that base node, then halt
	// there. Each of the b segments holds fNum+1 of the k homes.
	leader := func(api API, n, fNum int) error {
		b := k / (fNum + 1)
		for t := 0; t < fNum; t++ {
			nextToken(api)
			api.Broadcast(core.DeployMsg{TBase: fNum - t, N: n, K: k, B: b})
		}
		nextToken(api) // the next base node: this leader's target
		return nil
	}
	// follower is the follower side of the deployment phase (Algorithm
	// 3): wait for the leader's message, walk to the nearest base node,
	// then advance target slot by target slot until a vacant one is
	// found.
	follower := func(api API) error {
		var msg core.DeployMsg
		for found := false; !found; {
			for _, raw := range api.AwaitMessages() {
				if msg, found = raw.(core.DeployMsg); found {
					break
				}
			}
		}
		if msg.K != k {
			return fmt.Errorf("%w: deploy message carries k=%d, agent knows %d", core.ErrInvariant, msg.K, k)
		}
		// Walk to the nearest base node: pass TBase tokens.
		for seen := 0; seen < msg.TBase; seen++ {
			nextToken(api)
		}
		// Walk the target schedule: slot 0 is the base node itself
		// (taken by its leader); check slots 1..k/b-1, wrapping across
		// segments, within the (k+4)n cap (see core's follower frame
		// for the asynchrony caveat on Theorem 4's 2n bound).
		perSeg := msg.K / msg.B
		slot := 0
		for walked := 0; walked <= (msg.K+4)*msg.N; {
			step, err := core.SlotInterval(msg.N, msg.K, msg.B, slot)
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
		return fmt.Errorf("%w: follower found no vacant target within (k+4)n moves", core.ErrInvariant)
	}

	return func(api API) error {
		api.Meter().Set(alg2Words)
		api.ReleaseToken()

		n := 0 // learned during the first sub-phase circuit
		// Selection phase (Algorithm 2): repeat sub-phases while active.
		for subPhase := 1; ; subPhase++ {
			tokensSeen := 0
			circuit := 0
			own, wrapped := nextActive(api, &tokensSeen, &circuit)
			if wrapped {
				// The unique active agent: its home is the unique base
				// node (Algorithm 2 line 6).
				if n == 0 {
					n = circuit
				}
				decided(subPhase, true)
				return leader(api, n, own.fNum)
			}
			next, wrapped := nextActive(api, &tokensSeen, &circuit)
			identical := own == next
			min := !next.less(own)
			for !wrapped && tokensSeen < k {
				var other activeID
				other, wrapped = nextActive(api, &tokensSeen, &circuit)
				if own != other {
					identical = false
				}
				if other.less(own) {
					min = false
				}
			}
			if tokensSeen != k {
				return fmt.Errorf("%w: circuit ended after %d tokens, want %d", core.ErrInvariant, tokensSeen, k)
			}
			if n == 0 {
				n = circuit
			} else if n != circuit {
				return fmt.Errorf("%w: circuit length changed %d -> %d", core.ErrInvariant, n, circuit)
			}
			if identical {
				// All remaining active agents share the same ID: their
				// homes satisfy the base-node conditions; everyone becomes
				// a leader.
				if own.d <= 0 || n%own.d != 0 {
					return fmt.Errorf("%w: base distance %d does not divide n=%d", core.ErrInvariant, own.d, n)
				}
				decided(subPhase, true)
				return leader(api, n, own.fNum)
			}
			if !min || own == next {
				// Some agent has a strictly smaller ID, or the next active
				// agent ties us: become a follower (Algorithm 2 line 16).
				decided(subPhase, false)
				return follower(api)
			}
			// Remain active: the next sub-phase's first move happens in
			// this same atomic action.
		}
	}
}
