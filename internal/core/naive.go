package core

import (
	"fmt"

	"agentring/internal/seq"
	"agentring/internal/sim"
)

// naiveEstimator is the deliberately unsound algorithm used to replay
// the Theorem 5 impossibility construction (Fig 7) empirically: it
// estimates n and k with the fourfold-repetition rule — like the
// relaxed algorithm — but then *halts* at its target as if the estimate
// were knowledge, claiming termination detection without knowledge of k
// or n.
//
// On an isolated ring R this behaves exactly like Algorithm 1 once the
// estimate happens to be right. On the pumped ring R' (the initial
// pattern of R repeated q+1 times followed by an empty stretch), agents
// inside the repeated region observe the same prefix as in R, estimate
// R's size, halt at R-spacing — and uniform deployment of R' (which
// needs wider spacing) is violated. No algorithm can avoid this fate
// (Theorem 5); this program exists to demonstrate the construction, not
// to be used.
type naiveEstimator struct{}

var _ sim.Program = naiveEstimator{}

// NewNaiveEstimator returns the estimate-then-halt straw-man program.
func NewNaiveEstimator() sim.Program { return naiveEstimator{} }

// naiveScalars is the fixed scalar working set the estimator meters.
const naiveScalars = 6

// Frame implements sim.Program: the estimator as a resumable state
// machine, one atomic action per Step.
func (naiveEstimator) Frame() sim.Frame { return &naiveFrame{} }

type naiveFrame struct {
	phase int // 0 init, 1 estimation walk, 2 deployment
	d     []int
	dis   int
	left  int
}

func (f *naiveFrame) Step(api sim.API) sim.Action {
	switch f.phase {
	case 0:
		api.Meter().Set(naiveScalars)
		api.ReleaseToken()
		f.phase = 1
		f.dis++
		return sim.Action{Kind: sim.ActionMove}
	case 1:
		if api.TokensHere() > 0 {
			f.d = append(f.d, f.dis)
			api.Meter().Set(naiveScalars + len(f.d))
			if seq.FourfoldPrefix(f.d) {
				return f.deployStart()
			}
			f.dis = 0
		}
		f.dis++
		return sim.Action{Kind: sim.ActionMove}
	default:
		if f.left == 0 {
			// Halting here is exactly the sin Theorem 5 proves fatal.
			return sim.Action{Kind: sim.ActionDone}
		}
		f.left--
		return sim.Action{Kind: sim.ActionMove}
	}
}

// deployStart takes the fourfold-repetition estimate (k' = |D|/4, n' the
// sum of one quarter) as if it were knowledge and walks to the target
// Algorithm 1 would pick on a ring of n' nodes.
func (f *naiveFrame) deployStart() sim.Action {
	kPrime := len(f.d) / 4
	nPrime := seq.Sum(f.d[:kPrime])
	fund := f.d[:kPrime]
	rank := seq.MinRotation(fund)
	disBase := seq.Sum(fund[:rank])
	offset, err := TargetOffset(nPrime, kPrime, 1, rank)
	if err != nil {
		return sim.Action{Kind: sim.ActionDone, Err: fmt.Errorf("naive target: %w", err)}
	}
	f.phase = 2
	f.left = disBase + offset
	if f.left == 0 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.left--
	return sim.Action{Kind: sim.ActionMove}
}

// SaveState/LoadState implement sim.Frame (see alg1Frame): phase,
// counters, and the length-prefixed distance sequence.
func (f *naiveFrame) SaveState(buf []int) []int {
	buf = append(buf, f.phase, f.dis, f.left, len(f.d))
	return append(buf, f.d...)
}

func (f *naiveFrame) LoadState(buf []int) int {
	f.phase, f.dis, f.left = buf[0], buf[1], buf[2]
	n := buf[3]
	f.d = append(f.d[:0], buf[4:4+n]...)
	return 4 + n
}
