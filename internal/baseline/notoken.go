package baseline

import (
	"fmt"

	"agentring/internal/sim"
)

// NewNoToken returns the token-less deployment attempt that
// demonstrates the paper's Section 2 remark: "if agents are not allowed
// to have tokens, they cannot mark nodes in any way and this means that
// the uniform deployment problem cannot be solved", because under
// synchronous scheduling identical deterministic agents observe
// identical local views and the whole configuration only ever rotates
// rigidly.
//
// The program is the strongest thing a token-less anonymous agent can
// do with knowledge of n and k: walk, watch for co-located agents, and
// stop after a deterministic schedule of moves. That is FirstFit's
// frame, which never calls ReleaseToken or TokensHere either: up to 2k
// hops of ⌊n/k⌋ moves, halting at the end of the first hop where no
// other agent stays. It meters no memory. The agent is blind to
// everything except co-located staying agents — which, under
// synchronous scheduling of identical programs, it never sees, since
// everyone moves in lockstep. The accompanying experiment shows its gap
// multiset is invariant under the synchronous scheduler: whatever the
// schedule of moves, a non-uniform start stays non-uniform.
func NewNoToken(n, k int) (sim.Program, error) {
	if n < 1 || k < 1 || k > n {
		return nil, fmt.Errorf("baseline: invalid n=%d k=%d", n, k)
	}
	return &firstFit{n: n, k: k}, nil
}
