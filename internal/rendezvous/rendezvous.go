package rendezvous

import (
	"errors"
	"fmt"

	"agentring/internal/seq"
	"agentring/internal/sim"
)

// ErrSymmetric is returned when the initial configuration is periodic:
// no deterministic anonymous algorithm can gather the agents.
var ErrSymmetric = errors.New("rendezvous: periodic configuration, symmetry cannot be broken")

type program struct {
	k int
}

var _ sim.Program = (*program)(nil)

// New returns a rendezvous program for agents that know k.
func New(k int) (sim.Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("rendezvous: k=%d must be positive", k)
	}
	return &program{k: k}, nil
}

// scalars is the fixed scalar working set the program meters.
const scalars = 5

// Frame implements sim.Program: collect the distance sequence over one
// circuit, elect the unique minimal rotation's home node, walk there
// and halt. It fails with ErrSymmetric on periodic rings.
func (p *program) Frame() sim.Frame { return &frame{p: p} }

type frame struct {
	p     *program
	phase int // 0 init, 1 circuit, 2 walk to the elected node
	d     []int
	dis   int
	left  int // moves remaining to the elected node
}

func (f *frame) Step(api sim.API) sim.Action {
	switch f.phase {
	case 0:
		api.Meter().Set(scalars)
		api.ReleaseToken()
		f.phase, f.dis = 1, 1
		return sim.Action{Kind: sim.ActionMove}
	case 1:
		if api.TokensHere() == 0 {
			f.dis++
			return sim.Action{Kind: sim.ActionMove}
		}
		f.d = append(f.d, f.dis)
		api.Meter().Set(scalars + len(f.d))
		if len(f.d) < f.p.k {
			f.dis = 1
			return sim.Action{Kind: sim.ActionMove}
		}
		// The circuit is complete: a periodic sequence has no unique
		// minimal rotation, so no node can be elected.
		if seq.IsPeriodic(f.d) {
			return sim.Action{Kind: sim.ActionDone, Err: ErrSymmetric}
		}
		rank := seq.MinRotation(f.d)
		f.phase, f.left = 2, seq.Sum(f.d[:rank])
	}
	if f.left == 0 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.left--
	return sim.Action{Kind: sim.ActionMove}
}

// SaveState/LoadState implement sim.Frame: phase, counters, and the
// length-prefixed distance sequence.
func (f *frame) SaveState(buf []int) []int {
	buf = append(buf, f.phase, f.dis, f.left, len(f.d))
	return append(buf, f.d...)
}

func (f *frame) LoadState(buf []int) int {
	f.phase, f.dis, f.left = buf[0], buf[1], buf[2]
	n := buf[3]
	f.d = append(f.d[:0], buf[4:4+n]...)
	return 4 + n
}
