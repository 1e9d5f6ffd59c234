package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"agentring"
	"agentring/internal/experiments"
	"agentring/internal/sim"
)

// sweepTotals are a sweep's outcome counts that every sound search
// reduction leaves unchanged, committed as the workload's oracle.
type sweepTotals struct {
	states, distinct, placements int
}

// exploreParams sizes an explore-* workload: one experiments.ExploreAll
// sweep over every rotation-distinct placement of an n-ring, with one
// search worker.
type exploreParams struct {
	alg       agentring.Algorithm
	n         int
	adversary string // agentring.ParseAdversary budget, "" for none
	want      sweepTotals
	// speedup adds the recorded-only explore.speedup_w2 row: the same
	// sweep at two workers.
	speedup bool
}

// The placements are exhaustive, so the seed does not change what is
// timed; it drives the traced run's probe walks.
func exploreWorkload(name string, p exploreParams) workload {
	return workload{name: name, setup: func(e env) (instance, error) {
		x := &exploreInstance{p: p, env: e, opts: agentring.ExploreOptions{Workers: 1}}
		if p.adversary != "" {
			b, err := agentring.ParseAdversary(p.adversary)
			if err != nil {
				return nil, err
			}
			x.opts.Adversary = &b
			x.adv = &sim.AdversaryBudget{MaxConcurrent: b.MaxConcurrent, RepairWithin: b.RepairWithin, MaxTotal: b.MaxTotal}
		}
		x.placements = experiments.AllPlacements(p.n)
		if len(x.placements) != p.want.placements {
			return nil, fmt.Errorf("%d placements of the %d-ring, want %d", len(x.placements), p.n, p.want.placements)
		}
		return x, nil
	}}
}

type exploreInstance struct {
	p          exploreParams
	env        env
	opts       agentring.ExploreOptions
	adv        *sim.AdversaryBudget
	placements [][]int
}

// sweepDetail is what a repetition keeps for the per-layer metrics.
type sweepDetail struct {
	rows          []experiments.ExploreRow
	mallocs, heap uint64        // allocations during a traced sweep
	self          time.Duration // ExploreAll's self time in a traced sweep
}

// sweep runs one ExploreAll. In a traced sweep each placement's
// exploration becomes a child span, from the previous row's arrival to
// its own.
func (x *exploreInstance) sweep(workers int, tr *tracer) ([]experiments.ExploreRow, time.Duration, error) {
	opts := x.opts
	opts.Workers = workers
	id := tr.id()
	start := time.Now()
	prev := start
	rows, err := experiments.ExploreAllStream(context.Background(), x.p.alg, "ring", x.p.n, nil, opts, func(experiments.ExploreRow) {
		now := time.Now()
		tr.add(0, id, "agentring.Explore", "", prev, now)
		prev = now
	})
	end := time.Now()
	tr.add(id, 0, "experiments.ExploreAll", "", start, end)
	return rows, end.Sub(start), err
}

func (x *exploreInstance) rep(tr *tracer) repStats {
	var ms0, ms1 runtime.MemStats
	from := 0
	if tr != nil {
		from = tr.spanCount()
		runtime.ReadMemStats(&ms0)
	}
	rows, wall, err := x.sweep(1, tr)
	d := &sweepDetail{rows: rows}
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		d.mallocs = ms1.Mallocs - ms0.Mallocs
		d.heap = ms1.TotalAlloc - ms0.TotalAlloc
		d.self = selfTimes(tr.spansSince(from))["experiments.ExploreAll"]
	}
	st := repStats{wall: wall, ops: []time.Duration{wall}, attempted: x.p.want.placements, detail: d}
	if err != nil {
		st.problems = append(st.problems, err.Error())
	}
	var got sweepTotals
	bad := 0
	for _, r := range rows {
		got.states += r.Report.States
		got.distinct += r.Report.DistinctTerminals
		got.placements++
		if !r.Report.Complete || r.Report.Counterexample != nil {
			bad++
			st.problems = append(st.problems, fmt.Sprintf("homes %v: complete=%v counterexample=%v",
				r.Homes, r.Report.Complete, r.Report.Counterexample != nil))
		}
	}
	st.units = int64(got.states)
	st.failed = bad + x.p.want.placements - len(rows)
	if got != x.p.want {
		st.failed = x.p.want.placements
		st.problems = append(st.problems, fmt.Sprintf("sweep totals %+v, want %+v", got, x.p.want))
	}
	return st
}

func (x *exploreInstance) layers(tr *tracer, reps []repStats, m map[string]float64) error {
	cfgs := make([]simConfig, len(x.placements))
	for i, homes := range x.placements {
		c, err := newSimConfig(x.p.alg, agentring.Config{N: x.p.n, Homes: homes}, x.adv)
		if err != nil {
			return err
		}
		cfgs[i] = c
	}
	p := newProber(tr, x.env.seed, x.env.probe)
	ckpt, err := simLayers(p, cfgs, m)
	if err != nil {
		return err
	}

	// The per-search fixed cost: exploring a single agent.
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < x.env.probe; i++ {
		t := time.Now()
		if _, err := agentring.Explore(context.Background(), x.p.alg, agentring.Config{N: x.p.n, Homes: []int{0}}, x.opts); err != nil {
			return err
		}
		tr.observe("agentring.explore_fixed", float64(time.Since(t)))
	}
	m["agentring.explore_fixed_us"] = tr.p50("agentring.explore_fixed") / 1e3

	var walls, allocs, bytes, self []float64
	var last *sweepDetail
	for _, r := range reps {
		d := r.detail.(*sweepDetail)
		last = d
		walls = append(walls, r.wall.Seconds())
		if r.traced && r.units > 0 {
			allocs = append(allocs, float64(d.mallocs)/float64(r.units))
			bytes = append(bytes, float64(d.heap)/float64(r.units))
			self = append(self, d.self.Seconds()*1e3)
		}
	}
	var states, expansions, applied, pruned, skips float64
	for _, r := range last.rows {
		states += float64(r.Report.States)
		expansions += float64(r.Report.Replays)
		applied += float64(r.Report.StepsReplayed)
		pruned += float64(r.Report.Pruned)
		skips += float64(r.Report.SleepSkips)
	}
	m["explore.states"] = states
	m["explore.expansions"] = expansions
	m["explore.applied_steps"] = applied
	m["explore.pruned"] = pruned
	m["explore.sleep_skips"] = skips
	if states > 0 {
		m["explore.expansions_per_state"] = expansions / states
		m["explore.cache_hit_ratio"] = pruned / (pruned + states)
		// What the sweep's own counts predict the sim layer costs per
		// state, priced by the probes: the checkpoint search calls
		// DecisionPoint once per applied step and per expansion and
		// StateKey once per expansion; the replay search builds an engine,
		// replays and keys once per expansion. Checkpoint captures,
		// restores and cache visits are not counted by the explorer yet,
		// so they stay in the residual self time.
		var simNs float64
		if ckpt {
			simNs = expansions*m["sim.state_key_ns"] + (expansions+applied)*m["sim.decision_point_ns"] + applied*m["sim.apply_choice_ns"]
		} else {
			simNs = expansions*(m["sim.new_engine_us"]*1e3+m["sim.snapshot_key_ns"]) + applied*m["sim.replay_ns_per_step"]
		}
		m["explore.sim_ns_per_state"] = simNs / states
		m["explore.self_ns_per_state"] = median(nsPerUnit(reps)) - simNs/states
	}
	m["explore.allocs_per_state"] = median(allocs)
	m["explore.alloc_bytes_per_state"] = median(bytes)
	m["experiments.placements"] = float64(len(last.rows))
	m["experiments.self_ms"] = median(self)

	if x.p.speedup {
		_, w2, err := x.sweep(2, nil)
		if err != nil {
			return err
		}
		m["explore.speedup_w2"] = median(walls) / w2.Seconds()
	}
	return nil
}

func (x *exploreInstance) close() {}
