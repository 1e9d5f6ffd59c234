package core

import (
	"fmt"

	"agentring/internal/sim"
)

// NewBiNative returns the bidirectional-ring variant of Algorithm 1 for
// agents that know k, the first algorithm in this codebase that
// exploits the engine's multi-port topology layer. It assumes the
// substrate is a bidirectional ring whose port 0 is the forward
// (clockwise) link and port 1 the backward link (internal/topo.BiRing).
//
// The selection phase is exactly Algorithm 1's: release the token, walk
// one full forward circuit collecting the distance sequence D, and
// derive n, the base rank, and the target offset. The deployment phase
// then moves along whichever direction is shorter: forward delta =
// (disBase + offset) mod n steps via port 0, or backward n - delta
// steps via port 1. The final positions are *identical* to Algorithm
// 1's on the same initial configuration (the target assignment is a
// pure function of the token geometry), but the deployment phase costs
// at most floor(n/2) moves per agent instead of up to ~2n, so total
// moves drop strictly whenever any agent's target lies behind it.
// Correctness under asynchrony is unchanged: the return journey reads
// nothing — agents in transit interact with nobody — and every token is
// already placed before any agent finishes its circuit. It runs as
// Algorithm 1's frame (alg1.go) with the short-way deployment.
func NewBiNative(k int) (sim.Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadParam, k)
	}
	return &alg1{know: KnowAgents, value: k, bi: true}, nil
}
