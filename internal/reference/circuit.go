package reference

import (
	"fmt"

	"agentring/internal/core"
	"agentring/internal/seq"
)

// Scalar working sets, as the frames meter them.
const (
	alg1Scalars     = 6 // j, dis, n, rank, disBase, moved
	biNativeScalars = 7 // Algorithm 1's plus delta
	naiveScalars    = 6
	relaxedScalars  = 8 // nPrime, kPrime, nodes, dis, rank, disBase, t, loop counters
	alg2Words       = 14
)

// nextToken moves to the next node holding a token and returns the
// distance travelled.
func nextToken(api API) int {
	for dis := 1; ; dis++ {
		api.Move()
		if api.TokensHere() > 0 {
			return dis
		}
	}
}

// Alg1 is Algorithm 1 (Section 3.1) for an agent that knows k
// (core.KnowAgents) or n (core.KnowNodes).
func Alg1(know core.Knowledge, value int) Func {
	return func(api API) error {
		m := api.Meter()
		m.Set(alg1Scalars)

		// Selection phase: release the token, travel once around the
		// ring, recording the distance between consecutive token nodes.
		api.ReleaseToken()
		var d []int
		moved := 0
		for {
			dis := nextToken(api)
			moved += dis
			d = append(d, dis)
			m.Set(alg1Scalars + len(d))
			if know == core.KnowAgents && len(d) == value || know == core.KnowNodes && moved >= value {
				break
			}
		}
		n := moved // one full circuit
		k := len(d)
		if know == core.KnowNodes && n != value {
			return fmt.Errorf("%w: moved %d nodes, expected circuit of %d", core.ErrInvariant, n, value)
		}
		if know == core.KnowAgents && k != value {
			return fmt.Errorf("%w: observed %d tokens, expected %d", core.ErrInvariant, k, value)
		}
		if seq.Sum(d) != n {
			return fmt.Errorf("%w: distance sequence sums to %d, circuit length %d", core.ErrInvariant, seq.Sum(d), n)
		}

		// Deployment phase: the agent whose distance sequence is the
		// lexicographic minimum marks the base node; rank is the shift
		// reaching that minimum.
		rank := seq.MinRotation(d)
		disBase := seq.Sum(d[:rank])
		b := seq.SymmetryDegree(d) // number of base nodes (Section 3.1: all rotation minima)
		offset, err := core.TargetOffset(n, k, b, rank)
		if err != nil {
			return fmt.Errorf("target for rank %d: %w", rank, err)
		}
		for i := 0; i < disBase+offset; i++ {
			api.Move()
		}
		// Returning enters the halt state: termination detection achieved.
		return nil
	}
}

// BiNative is the bidirectional-ring variant of Algorithm 1 for agents
// that know k: Algorithm 1's selection phase, then the deployment along
// whichever direction is shorter (port 0 forward, port 1 backward).
func BiNative(k int) Func {
	return func(api API) error {
		if deg := api.OutDegree(); deg < 2 {
			return fmt.Errorf("%w: bidirectional algorithm on out-degree-%d node", core.ErrBadParam, deg)
		}
		m := api.Meter()
		m.Set(biNativeScalars)

		// Selection phase (identical to Algorithm 1).
		api.ReleaseToken()
		var d []int
		moved := 0
		for len(d) < k {
			dis := nextToken(api)
			moved += dis
			d = append(d, dis)
			m.Set(biNativeScalars + len(d))
		}
		n := moved // one full circuit
		if seq.Sum(d) != n {
			return fmt.Errorf("%w: distance sequence sums to %d, circuit length %d", core.ErrInvariant, seq.Sum(d), n)
		}
		rank := seq.MinRotation(d)
		disBase := seq.Sum(d[:rank])
		offset, err := core.TargetOffset(n, k, seq.SymmetryDegree(d), rank)
		if err != nil {
			return fmt.Errorf("target for rank %d: %w", rank, err)
		}

		// Deployment phase: the agent is back at its home node, so the
		// target lies delta nodes ahead — take the short way around.
		delta := (disBase + offset) % n
		port, steps := 0, delta
		if delta > n-delta {
			port, steps = 1, n-delta
		}
		for i := 0; i < steps; i++ {
			api.MoveVia(port)
		}
		return nil
	}
}

// Naive is the estimate-then-halt straw man of Theorem 5: it estimates
// n and k with the fourfold-repetition rule, then halts at its target
// as if the estimate were knowledge.
func Naive() Func {
	return func(api API) error {
		m := api.Meter()
		m.Set(naiveScalars)

		api.ReleaseToken()
		var d []int
		for !seq.FourfoldPrefix(d) {
			d = append(d, nextToken(api))
			m.Set(naiveScalars + len(d))
		}
		kPrime := len(d) / 4
		nPrime := seq.Sum(d[:kPrime])

		fund := d[:kPrime]
		rank := seq.MinRotation(fund)
		disBase := seq.Sum(fund[:rank])
		offset, err := core.TargetOffset(nPrime, kPrime, 1, rank)
		if err != nil {
			return fmt.Errorf("naive target: %w", err)
		}
		for i := 0; i < disBase+offset; i++ {
			api.Move()
		}
		// Halting here is exactly the sin Theorem 5 proves fatal.
		return nil
	}
}
