package baseline

import (
	"fmt"

	"agentring/internal/sim"
)

type firstFit struct {
	n, k  int
	words int // the memory meter's reading: 4 for FirstFit, 0 for NoToken
}

var _ sim.Program = (*firstFit)(nil)

// NewFirstFit returns the uncoordinated strawman. A budget of 2k hops
// bounds how long an agent hunts for a vacant stride point before
// giving up and halting wherever it stands (the heuristic has no
// termination guarantee of its own).
func NewFirstFit(n, k int) (sim.Program, error) {
	if n < 1 || k < 1 || k > n {
		return nil, fmt.Errorf("baseline: invalid n=%d k=%d", n, k)
	}
	return &firstFit{n: n, k: k, words: 4}, nil
}

// Frame implements sim.Program: the strawman as a resumable state
// machine, one atomic action per Step. It hunts stride points for at
// most 2k hops, then gives up in place; it always strides at least
// once, so the heuristic actually scatters instead of trivially
// declaring its own home a stride point.
func (p *firstFit) Frame() sim.Frame { return &firstFitFrame{p: p} }

type firstFitFrame struct {
	p       *firstFit
	started bool
	stride  int
	hop     int // completed stride hops
	i       int // moves issued in the current hop
}

func (f *firstFitFrame) Step(api sim.API) sim.Action {
	if !f.started {
		f.started = true
		api.Meter().Set(f.p.words)
		f.stride = f.p.n / f.p.k
		if f.stride == 0 {
			f.stride = 1
		}
		f.i = 1
		return sim.Action{Kind: sim.ActionMove}
	}
	if f.i < f.stride {
		f.i++
		return sim.Action{Kind: sim.ActionMove}
	}
	// A stride point: vacant means settle, occupied means hop again —
	// until the hop budget runs out and the agent parks in place.
	if api.AgentsHere() == 0 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.hop++
	if f.hop >= 2*f.p.k {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.i = 1
	return sim.Action{Kind: sim.ActionMove}
}

// SaveState/LoadState implement sim.Frame: the frame's resumable
// state is four scalars (started encoded as 0/1).
func (f *firstFitFrame) SaveState(buf []int) []int {
	started := 0
	if f.started {
		started = 1
	}
	return append(buf, started, f.stride, f.hop, f.i)
}

func (f *firstFitFrame) LoadState(buf []int) int {
	f.started = buf[0] != 0
	f.stride, f.hop, f.i = buf[1], buf[2], buf[3]
	return 4
}
