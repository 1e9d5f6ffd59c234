package core

import (
	"fmt"

	"agentring/internal/seq"
	"agentring/internal/sim"
)

// Knowledge says which global quantity an Algorithm-1 agent was given.
// The paper gives agents k; footnote 2 notes knowledge of n works the
// same way (each yields the other after one circuit).
type Knowledge int

// Knowledge kinds.
const (
	// KnowAgents means the agent knows k, the number of agents, and
	// detects circuit completion by counting k token nodes.
	KnowAgents Knowledge = iota + 1
	// KnowNodes means the agent knows n, the number of nodes, and
	// detects circuit completion by counting n moves.
	KnowNodes
)

// alg1 is the native O(k log n)-memory algorithm of Section 3.1, or,
// with bi set, its bidirectional variant (NewBiNative).
type alg1 struct {
	know  Knowledge
	value int  // k if KnowAgents, n if KnowNodes
	bi    bool // deploy the short way round a bidirectional ring
}

var _ sim.Program = (*alg1)(nil)

// NewAlg1 returns an Algorithm 1 program. Every agent in a run must be
// given the same (correct) knowledge.
func NewAlg1(know Knowledge, value int) (sim.Program, error) {
	switch know {
	case KnowAgents, KnowNodes:
	default:
		return nil, fmt.Errorf("%w: unknown knowledge kind %d", ErrBadParam, know)
	}
	if value < 1 {
		return nil, fmt.Errorf("%w: knowledge value %d", ErrBadParam, value)
	}
	return &alg1{know: know, value: value}, nil
}

// scalars is the fixed scalar working set Algorithm 1 meters: j, dis,
// n, rank, disBase, moved, and delta for the bidirectional variant.
func (p *alg1) scalars() int {
	if p.bi {
		return 7
	}
	return 6
}

// circuitDone reports whether the selection-phase traversal has
// completed one circuit.
func (p *alg1) circuitDone(tokensSeen, moved int) bool {
	if p.know == KnowAgents {
		return tokensSeen == p.value
	}
	return moved >= p.value
}

// Frame implements sim.Program: Algorithm 1 as a resumable state
// machine, one atomic action per Step.
func (p *alg1) Frame() sim.Frame { return &alg1Frame{p: p} }

// alg1Frame is the data-oriented execution of Algorithm 1. Selection
// state is the distance sequence under construction; deployment is a
// countdown of moves through one port.
type alg1Frame struct {
	p     *alg1
	phase int // 0 init, 1 selection circuit, 2 deployment
	d     []int
	dis   int
	moved int
	port  int // deployment direction: 0 forward, 1 backward (bi only)
	left  int // deployment moves remaining
}

func (f *alg1Frame) Step(api sim.API) sim.Action {
	switch f.phase {
	case 0:
		if f.p.bi {
			if deg := api.OutDegree(); deg < 2 {
				return sim.Action{Kind: sim.ActionDone,
					Err: fmt.Errorf("%w: bidirectional algorithm on out-degree-%d node", ErrBadParam, deg)}
			}
		}
		// Selection phase: release the token, then travel once (forward)
		// around the ring, recording the distance between consecutive
		// token nodes.
		api.Meter().Set(f.p.scalars())
		api.ReleaseToken()
		f.phase = 1
		return f.selMove()
	case 1:
		if api.TokensHere() > 0 {
			f.d = append(f.d, f.dis)
			api.Meter().Set(f.p.scalars() + len(f.d))
			if f.p.circuitDone(len(f.d), f.moved) {
				return f.deployStart()
			}
			f.dis = 0
		}
		return f.selMove()
	default:
		// Deployment phase: walk to the target, then halt — returning
		// ActionDone enters the halt state, so termination is detected.
		if f.left == 0 {
			return sim.Action{Kind: sim.ActionDone}
		}
		f.left--
		return sim.Action{Kind: sim.ActionMove, Port: f.port}
	}
}

func (f *alg1Frame) selMove() sim.Action {
	f.moved++
	f.dis++
	return sim.Action{Kind: sim.ActionMove}
}

// deployStart runs the between-phases computation inside the activation
// that observed the final token: one circuit gives n (or k), and the
// deployment phase starts. The agent whose distance sequence is the
// lexicographic minimum marks the base node; rank is the shift reaching
// that minimum, and the b rotation minima are the base nodes (Section
// 3.1).
func (f *alg1Frame) deployStart() sim.Action {
	p, n, k, d := f.p, f.moved, len(f.d), f.d
	if p.know == KnowNodes && n != p.value {
		return sim.Action{Kind: sim.ActionDone,
			Err: fmt.Errorf("%w: moved %d nodes, expected circuit of %d", ErrInvariant, n, p.value)}
	}
	if p.know == KnowAgents && k != p.value {
		return sim.Action{Kind: sim.ActionDone,
			Err: fmt.Errorf("%w: observed %d tokens, expected %d", ErrInvariant, k, p.value)}
	}
	if seq.Sum(d) != n {
		return sim.Action{Kind: sim.ActionDone,
			Err: fmt.Errorf("%w: distance sequence sums to %d, circuit length %d", ErrInvariant, seq.Sum(d), n)}
	}
	rank := seq.MinRotation(d)
	disBase := seq.Sum(d[:rank])
	b := seq.SymmetryDegree(d)
	offset, err := TargetOffset(n, k, b, rank)
	if err != nil {
		return sim.Action{Kind: sim.ActionDone, Err: fmt.Errorf("target for rank %d: %w", rank, err)}
	}
	f.phase = 2
	f.left = disBase + offset
	if p.bi {
		// Back at its home node, the agent finds the target delta nodes
		// ahead: it takes the short way around.
		if delta := f.left % n; delta <= n-delta {
			f.left = delta
		} else {
			f.port, f.left = 1, n-delta
		}
	}
	if f.left == 0 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.left--
	return sim.Action{Kind: sim.ActionMove, Port: f.port}
}

// SaveState/LoadState implement sim.Frame: the frame's resumable
// state is its phase tag, scalar counters, and the distance sequence
// under construction, flattened length-prefixed. The alg1 program value
// itself is immutable configuration and is not serialized.
func (f *alg1Frame) SaveState(buf []int) []int {
	buf = append(buf, f.phase, f.dis, f.moved, f.port, f.left, len(f.d))
	return append(buf, f.d...)
}

func (f *alg1Frame) LoadState(buf []int) int {
	f.phase, f.dis, f.moved, f.port, f.left = buf[0], buf[1], buf[2], buf[3], buf[4]
	n := buf[5]
	f.d = append(f.d[:0], buf[6:6+n]...)
	return 6 + n
}
