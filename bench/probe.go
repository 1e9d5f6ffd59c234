package main

import (
	"fmt"
	"math/rand"
	"time"

	"agentring"
	"agentring/internal/core"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// simConfig is one engine configuration of a workload, in the two forms
// the probes drive: the agentring facade's Config, and the raw inputs of
// sim.NewEngine.
type simConfig struct {
	alg   agentring.Algorithm
	cfg   agentring.Config
	topo  sim.Topology
	homes []ring.NodeID
	adv   *sim.AdversaryBudget
}

func newSimConfig(alg agentring.Algorithm, cfg agentring.Config, adv *sim.AdversaryBudget) (simConfig, error) {
	r, err := ring.New(cfg.N)
	if err != nil {
		return simConfig{}, err
	}
	homes := make([]ring.NodeID, len(cfg.Homes))
	for i, h := range cfg.Homes {
		homes[i] = ring.NodeID(h)
	}
	return simConfig{alg: alg, cfg: cfg, topo: r, homes: homes, adv: adv}, nil
}

// programs builds the agents the facade would build for the algorithm.
func (c simConfig) programs() ([]sim.Program, error) {
	k := len(c.homes)
	out := make([]sim.Program, k)
	for i := range out {
		var err error
		switch c.alg {
		case agentring.Native:
			out[i], err = core.NewAlg1(core.KnowAgents, k)
		case agentring.LogSpace:
			out[i], err = core.NewAlg2(k)
		default:
			return nil, fmt.Errorf("no probe programs for %s", c.alg)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scheduler builds the scheduler the facade would build for the config.
func (c simConfig) scheduler() sim.Scheduler {
	switch c.cfg.Scheduler {
	case agentring.RandomSched:
		return sim.NewRandom(c.cfg.Seed)
	case agentring.Synchronous:
		return sim.NewSynchronous()
	default:
		return sim.NewRoundRobin()
	}
}

// engine builds a fresh engine over the config.
func (c simConfig) engine(opts sim.Options) (*sim.Engine, error) {
	progs, err := c.programs()
	if err != nil {
		return nil, err
	}
	opts.Adversary = c.adv
	return sim.NewEngine(c.topo, c.homes, progs, opts)
}

// prober measures per-call costs of the sim and agentring layers on a
// workload's own configurations, recording them into the tracer's
// histograms. Each probe cycles through the configurations until its
// budget is spent.
type prober struct {
	tr     *tracer
	rng    *rand.Rand
	budget time.Duration
	// overhead is the cost of one time.Now/time.Since pair, subtracted
	// from every per-call sample.
	overhead time.Duration
}

func newProber(tr *tracer, seed int64, budget time.Duration) *prober {
	xs := make([]float64, 10_001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return &prober{tr: tr, rng: rand.New(rand.NewSource(seed)), budget: budget, overhead: time.Duration(median(xs))}
}

// call records one per-call sample started at t0.
func (p *prober) call(name string, t0 time.Time) {
	p.tr.observe(name, float64(max(time.Since(t0)-p.overhead, 0)))
}

// runPairs times the facade (agentring.Run: engine, report and
// verification) against the raw engine (sim.NewEngine plus Engine.Run)
// on the same configuration, alternately, until the budget is spent and
// at least one pair ran. The facade's extra time is agentring.report.
func (p *prober) runPairs(cfgs []simConfig) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < p.budget; i++ {
		c := cfgs[i%len(cfgs)]
		t0 := time.Now()
		if _, err := agentring.Run(c.alg, c.cfg); err != nil {
			return err
		}
		facade := time.Since(t0)
		progs, err := c.programs()
		if err != nil {
			return err
		}
		t1 := time.Now()
		eng, err := sim.NewEngine(c.topo, c.homes, progs, sim.Options{Scheduler: c.scheduler()})
		if err != nil {
			return err
		}
		t2 := time.Now()
		res, err := eng.Run()
		if err != nil {
			return err
		}
		t3 := time.Now()
		p.tr.observe("sim.new_engine", float64(t2.Sub(t1)))
		if res.Steps > 0 {
			p.tr.observe("sim.run_per_step", float64(t3.Sub(t2))/float64(res.Steps))
		}
		p.tr.observe("agentring.report", float64(facade-t3.Sub(t1)))
	}
	return nil
}

// steps walks random schedules through the step API the checkpoint
// search uses — DecisionPoint, StateKey and ApplyChoice at every state,
// CheckpointTo every stride levels, Restore of a random earlier
// checkpoint on reaching quiescence or the depth bound — timing every
// call. It reports false, measuring nothing, when the programs cannot be
// checkpointed: their searches replay from the root instead.
func (p *prober) steps(cfgs []simConfig) (bool, error) {
	const stride, maxDepth, decisionsPerEngine = 4, 256, 4096
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < p.budget; i++ {
		c := cfgs[i%len(cfgs)]
		eng, err := c.engine(sim.Options{TrackState: true})
		if err != nil {
			return false, err
		}
		if !eng.Checkpointable() {
			return false, nil
		}
		var (
			cps    []*sim.Checkpoint // checkpoints on the current path
			depths []int
			spare  []*sim.Checkpoint
		)
		depth := 0
		for d := 0; d < decisionsPerEngine && (d == 0 || time.Since(start) < p.budget); d++ {
			t := time.Now()
			cs := eng.DecisionPoint()
			p.call("sim.decision_point", t)
			t = time.Now()
			eng.StateKey()
			p.call("sim.state_key", t)
			if len(cs) == 0 || depth >= maxDepth || eng.Steps() >= eng.StepLimit() {
				j := p.rng.Intn(len(cps))
				t = time.Now()
				if err := eng.Restore(cps[j]); err != nil {
					return false, err
				}
				p.call("sim.restore", t)
				depth = depths[j]
				spare = append(spare, cps[j+1:]...)
				cps, depths = cps[:j+1], depths[:j+1]
				continue
			}
			if depth%stride == 0 && (len(depths) == 0 || depths[len(depths)-1] != depth) {
				cp := &sim.Checkpoint{}
				if n := len(spare); n > 0 {
					cp, spare = spare[n-1], spare[:n-1]
				}
				t = time.Now()
				if err := eng.CheckpointTo(cp); err != nil {
					return false, err
				}
				p.call("sim.checkpoint_to", t)
				cps, depths = append(cps, cp), append(depths, depth)
			}
			ch := cs[p.rng.Intn(len(cs))]
			t = time.Now()
			if err := eng.ApplyChoice(ch); err != nil {
				return false, err
			}
			p.call("sim.apply_choice", t)
			depth++
		}
	}
	return true, nil
}

// walker is a scheduler picking uniformly at random and recording its
// picks, stopping after limit decisions.
type walker struct {
	rng    *rand.Rand
	limit  int
	prefix []int
}

func (w *walker) Pick(_ int, choices []sim.Choice) int {
	if len(w.prefix) >= w.limit {
		return sim.PickStop
	}
	i := w.rng.Intn(len(choices))
	w.prefix = append(w.prefix, i)
	return i
}

// replays replays random decision prefixes the way the replay search
// expands a state: a fresh tracked engine under sim.NewControlled, Run
// to the prefix's end, then Snapshot().Key().
func (p *prober) replays(cfgs []simConfig) error {
	const maxPrefix = 256
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < p.budget; i++ {
		c := cfgs[i%len(cfgs)]
		w := &walker{rng: p.rng, limit: 1 + p.rng.Intn(maxPrefix)}
		eng, err := c.engine(sim.Options{Scheduler: w})
		if err != nil {
			return err
		}
		if _, err := eng.Run(); err != nil {
			return err
		}
		progs, err := c.programs()
		if err != nil {
			return err
		}
		t0 := time.Now()
		eng, err = sim.NewEngine(c.topo, c.homes, progs, sim.Options{
			Scheduler: sim.NewControlled(w.prefix), TrackState: true, Adversary: c.adv,
		})
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := eng.Run()
		if err != nil {
			return err
		}
		t2 := time.Now()
		eng.Snapshot().Key()
		t3 := time.Now()
		p.tr.observe("sim.new_engine", float64(t1.Sub(t0)))
		if res.Steps > 0 {
			p.tr.observe("sim.replay_per_step", float64(t2.Sub(t1))/float64(res.Steps))
		}
		p.tr.observe("sim.snapshot_key", float64(t3.Sub(t2)-p.overhead))
	}
	return nil
}

// simLayers runs every sim probe over the configurations and fills the
// sim.* and agentring.report_ms metrics. It reports whether the step-API
// probe ran (the programs are checkpointable).
func simLayers(p *prober, cfgs []simConfig, m map[string]float64) (bool, error) {
	if err := p.runPairs(cfgs); err != nil {
		return false, fmt.Errorf("run probe: %w", err)
	}
	ckpt, err := p.steps(cfgs)
	if err != nil {
		return false, fmt.Errorf("step probe: %w", err)
	}
	if err := p.replays(cfgs); err != nil {
		return false, fmt.Errorf("replay probe: %w", err)
	}
	tr := p.tr
	m["agentring.report_ms"] = tr.p50("agentring.report") / 1e6
	m["sim.new_engine_us"] = tr.p50("sim.new_engine") / 1e3
	m["sim.run_ns_per_step"] = tr.p50("sim.run_per_step")
	m["sim.decision_point_ns"] = tr.p50("sim.decision_point")
	m["sim.apply_choice_ns"] = tr.p50("sim.apply_choice")
	m["sim.state_key_ns"] = tr.p50("sim.state_key")
	m["sim.checkpoint_to_ns"] = tr.p50("sim.checkpoint_to")
	m["sim.restore_ns"] = tr.p50("sim.restore")
	m["sim.snapshot_key_ns"] = tr.p50("sim.snapshot_key")
	m["sim.replay_ns_per_step"] = tr.p50("sim.replay_per_step")
	return ckpt, nil
}
