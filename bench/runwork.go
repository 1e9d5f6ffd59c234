package main

import (
	"fmt"
	"time"

	"agentring"
	"agentring/internal/ring"
	"agentring/internal/verify"
)

// runParams sizes a run-* workload: one agentring.Run on a ring of n
// nodes with k agents on seeded random homes.
type runParams struct {
	alg   agentring.Algorithm
	n, k  int
	sched agentring.SchedulerKind
}

func runWorkload(name string, p runParams) workload {
	return workload{name: name, setup: func(e env) (instance, error) {
		homes, err := agentring.RandomHomes(p.n, p.k, e.seed)
		if err != nil {
			return nil, err
		}
		cfg := agentring.Config{N: p.n, Homes: homes, Scheduler: p.sched, Seed: e.seed}
		return &runInstance{p: p, cfg: cfg, env: e}, nil
	}}
}

type runInstance struct {
	p   runParams
	cfg agentring.Config
	env env
}

func (r *runInstance) rep(tr *tracer) repStats {
	root := tr.id()
	t0 := time.Now()
	rep, err := agentring.Run(r.p.alg, r.cfg)
	t1 := time.Now()
	why := ""
	if err != nil {
		why = err.Error()
	} else if !rep.Uniform {
		why = "not uniform: " + rep.Why
	} else {
		why = checkDeployment(r.p.n, r.p.k, rep.Positions, rep.Gaps)
	}
	t2 := time.Now()
	tr.add(0, root, "agentring.Run", "", t0, t1)
	tr.add(0, root, "bench.check", "", t1, t2)
	tr.add(root, 0, "rep", "", t0, t2)
	st := repStats{wall: t1.Sub(t0), units: int64(rep.Steps), ops: []time.Duration{t1.Sub(t0)}, attempted: 1}
	if why == "" && rep.Steps <= 0 {
		why = "run reports no steps"
	}
	if why != "" {
		st.failed = 1
		st.problems = []string{why}
	}
	return st
}

func (r *runInstance) layers(tr *tracer, _ []repStats, m map[string]float64) error {
	c, err := newSimConfig(r.p.alg, r.cfg, nil)
	if err != nil {
		return err
	}
	_, err = simLayers(newProber(tr, r.env.seed, r.env.probe), []simConfig{c}, m)
	return err
}

func (r *runInstance) close() {}

// checkDeployment re-derives uniformity from the final positions with
// verify.ExplainNonUniform, then checks that the k reported gaps are all
// ⌊n/k⌋ or ⌈n/k⌉ and sum to n. It returns "" when all hold.
func checkDeployment(n, k int, positions, gaps []int) string {
	ids := make([]ring.NodeID, len(positions))
	for i, p := range positions {
		ids[i] = ring.NodeID(p)
	}
	if len(ids) != k {
		return fmt.Sprintf("%d positions for %d agents", len(ids), k)
	}
	if why := verify.ExplainNonUniform(n, ids); why != "" {
		return why
	}
	if len(gaps) != k {
		return fmt.Sprintf("%d gaps for %d agents", len(gaps), k)
	}
	lo, hi := n/k, (n+k-1)/k
	sum := 0
	for _, g := range gaps {
		if g != lo && g != hi {
			return fmt.Sprintf("gap %d is neither ⌊n/k⌋=%d nor ⌈n/k⌉=%d", g, lo, hi)
		}
		sum += g
	}
	if sum != n {
		return fmt.Sprintf("gaps sum to %d, not n=%d", sum, n)
	}
	return ""
}
