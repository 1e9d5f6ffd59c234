package reference

import (
	"fmt"

	"agentring/internal/core"
	"agentring/internal/seq"
)

// Relaxed is Algorithms 4-6 (Section 4.2) with the paper's constants:
// estimate k' and n' until the distance sequence is a fourfold
// repetition, patrol until 12 n' total moves handing every agent met a
// correction, then deploy and suspend, restarting deployment from a
// caught-up position whenever a correction proves the estimate at least
// doubled.
func Relaxed() Func {
	const repetitions, patrolMultiple = 4, 12
	return func(api API) error {
		m := api.Meter()
		m.Set(relaxedScalars)

		// ---- Estimating phase (Algorithm 4) ----
		api.ReleaseToken()
		var d []int
		nodes := 0
		for !seq.RepetitionPrefix(d, repetitions) {
			dis := nextToken(api)
			nodes += dis
			d = append(d, dis)
			m.Set(relaxedScalars + len(d))
		}
		kPrime := len(d) / repetitions
		nPrime := seq.Sum(d[:kPrime])

		// ---- Patrolling phase (Algorithm 5) ----
		// Move until the total move count reaches 12 n', correcting
		// every suspended agent encountered.
		for nodes < patrolMultiple*nPrime {
			api.Move()
			nodes++
			if api.AgentsHere() > 0 {
				api.Broadcast(core.PatrolMsg{NPrime: nPrime, KPrime: kPrime, Nodes: nodes, D: append([]int(nil), d...)})
			}
		}

		// ---- Deployment phase (Algorithm 6) ----
		for {
			fund := d[:kPrime]
			rank := seq.MinRotation(fund)
			disBase := seq.Sum(fund[:rank])
			offset, err := core.TargetOffset(nPrime, kPrime, 1, rank)
			if err != nil {
				return fmt.Errorf("relaxed target for rank %d: %w", rank, err)
			}
			for i := 0; i < disBase+offset; i++ {
				api.Move()
				nodes++
			}

			// Suspended state: wait for a message proving a bigger ring.
			// The sender's estimate must be at least double ours, and it
			// must have recorded our whole distance sequence as a
			// sub-block of its own, offset by the gap between our move
			// counts (Algorithm 6, line 14), taken modulo the sender's ring
			// estimate (seq.AlignSubsequenceMod).
			var upd core.PatrolMsg
			t, accepted := 0, false
			for !accepted {
				for _, raw := range api.AwaitMessages() {
					msg, ok := raw.(core.PatrolMsg)
					if !ok || nPrime > msg.NPrime/2 {
						continue
					}
					if t, accepted = seq.AlignSubsequenceMod(d, msg.D, msg.Nodes-nodes, msg.NPrime); accepted {
						upd = msg
						break
					}
				}
			}
			// Adopt the sender's estimates; re-anchor the distance sequence
			// to start from our own (virtual) home.
			nPrime, kPrime = upd.NPrime, upd.KPrime
			d = seq.Rotate(upd.D, t)
			m.Set(relaxedScalars + len(d))

			// Catch up so that our total moves again equal 12 x n' — the
			// position congruent to our home 12 estimated circuits along
			// (always ahead of us: Lemma 5 shows 12 n'new - nodes > 0).
			catchUp := patrolMultiple*nPrime - nodes
			if catchUp < 0 {
				return fmt.Errorf("%w: catch-up distance %d is negative", core.ErrInvariant, catchUp)
			}
			for i := 0; i < catchUp; i++ {
				api.Move()
				nodes++
			}
		}
	}
}
