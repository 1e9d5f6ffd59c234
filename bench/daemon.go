package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"agentring/internal/experiments"
	"agentring/internal/jobs"
	"agentring/internal/rpc"
)

// daemonParams sizes the daemon workload: a closed loop of two clients,
// each on its own connection and subscribed to all events, submitting
// jobsPerRep seeded jobs of the synthetic daemonShapes mix per
// repetition to a fresh in-process daemon.
type daemonParams struct {
	jobsPerRep int
}

const (
	daemonClients = 2
	// eventBuffer is the subscription's channel size on the daemon side:
	// one repetition's events for every job in flight, with room to spare,
	// so the bus drops nothing while a client decodes.
	eventBuffer = 4096
	// pollAfter is how long a client waits for its job's final event
	// before asking job.status instead (a dropped event).
	pollAfter = time.Second
	// checkEvery picks the jobs whose result bytes are compared with a
	// direct jobs.Execute of the same spec.
	checkEvery = 100
)

// daemonShapes are the job shapes the repository itself submits or
// documents. The repository records no daemon traffic, so the mix is
// synthetic: equal shares of these shapes, not a measured distribution.
// With an odd number of equal shares the median job sits in the middle
// share, not on the edge between two.
var daemonShapes = []func(rng *rand.Rand) jobs.Spec{
	// The CI daemon smoke's sweep (.github/workflows/ci.yml) and the
	// README's "Running the daemon" example.
	func(rng *rand.Rand) jobs.Spec {
		return jobs.Spec{Kind: jobs.KindSweep, Algorithm: "native", Ns: []int{64, 128}, Ks: []int{4, 8},
			Seed: rng.Int63n(1 << 31), Scheduler: "synchronous", TraceEvents: 20}
	},
	// The README's streaming example.
	func(rng *rand.Rand) jobs.Spec {
		return jobs.Spec{Kind: jobs.KindSweep, Algorithm: "logspace", Ns: []int{256}, Ks: []int{8, 16},
			Seed: rng.Int63n(1 << 31), TraceEvents: 20}
	},
	// cmd/agentring's usage: a run submitted with -wait.
	func(rng *rand.Rand) jobs.Spec {
		return jobs.Spec{Kind: jobs.KindRun, Algorithm: "logspace", N: 64, K: 8, Seed: rng.Int63n(1 << 31)}
	},
	// cmd/agentring's usage: a small native sweep.
	func(rng *rand.Rand) jobs.Spec {
		return jobs.Spec{Kind: jobs.KindSweep, Algorithm: "native", Ns: []int{64}, Ks: []int{4}, Seed: rng.Int63n(1 << 31)}
	},
	// One cell of an adversary sweep (jobs.Spec.Adversary): one placement
	// of the 4-ring against the README's 1/3 budget.
	func(rng *rand.Rand) jobs.Spec {
		ps := experiments.AllPlacements(4)
		homes := ps[rng.Intn(len(ps))]
		return jobs.Spec{Kind: jobs.KindExplore, Algorithm: "native", N: 4, K: len(homes), Homes: homes, Adversary: "1/3"}
	},
}

// daemonSpecs draws count seeded jobs, an equal share of each shape
// (count is rounded down to a multiple of the shape count) in seeded
// order. The seed picks the order and each job's inputs, not the shares.
func daemonSpecs(seed int64, count int) []jobs.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]jobs.Spec, count-count%len(daemonShapes))
	for i := range specs {
		specs[i] = daemonShapes[i%len(daemonShapes)](rng)
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func daemonWorkload(name string, p daemonParams) workload {
	return workload{name: name, setup: func(e env) (instance, error) {
		return startDaemon(e, daemonSpecs(e.seed, p.jobsPerRep))
	}}
}

// daemonInstance is one running daemon — a jobs engine behind an RPC
// server on a Unix socket — with its subscribed clients.
type daemonInstance struct {
	env     env
	specs   []jobs.Spec
	dir     string
	eng     *jobs.Engine
	srv     *rpc.Server
	ln      net.Listener
	served  chan struct{}
	clients []*client
}

func startDaemon(e env, specs []jobs.Spec) (*daemonInstance, error) {
	dir, err := os.MkdirTemp(e.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemonInstance{env: e, specs: specs, dir: dir, served: make(chan struct{})}
	sock := filepath.Join(dir, "d.sock")
	d.eng = jobs.New(jobs.Options{Runners: 2, Workers: 1})
	d.srv = rpc.NewServer(d.eng, sock)
	d.ln, err = net.Listen("unix", sock)
	if err != nil {
		d.eng.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	go func() {
		defer close(d.served)
		// Serve returns nil once closed; an accept failure before that
		// shows up as failed client calls.
		_ = d.srv.Serve(d.ln)
	}()
	for i := 0; i < daemonClients; i++ {
		c, err := dial(sock)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

func (d *daemonInstance) close() {
	for _, c := range d.clients {
		c.close()
	}
	d.srv.Close()
	d.ln.Close()
	<-d.served
	d.eng.Close()
	os.RemoveAll(d.dir)
}

// client is one daemon connection subscribed to every job's events. A
// reader goroutine files each event under its job id and wakes the
// waiting caller; a job's events may arrive before its submit is
// acknowledged, so they are kept until asked for.
type client struct {
	rc     *rpc.Client
	mu     sync.Mutex
	seen   map[string]*jobEvents
	wake   chan struct{}
	events atomic.Int64 // notifications received
	missed atomic.Int64 // final events that never came (job.status fallback)
	read   chan struct{}
}

type jobEvents struct {
	started, finished time.Time
	state             jobs.State
}

func dial(sock string) (*client, error) {
	rc, err := rpc.Dial(sock)
	if err != nil {
		return nil, err
	}
	c := &client{rc: rc, seen: make(map[string]*jobEvents), wake: make(chan struct{}, 1), read: make(chan struct{})}
	st, err := rc.DaemonStatus()
	if err == nil && st.Protocol != rpc.ProtocolVersion {
		err = fmt.Errorf("daemon speaks protocol %d, want %d", st.Protocol, rpc.ProtocolVersion)
	}
	if err == nil {
		err = rc.Call("events.subscribe", struct {
			Buffer int `json:"buffer"`
		}{eventBuffer}, nil)
	}
	go c.readEvents()
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *client) close() {
	c.rc.Close()
	<-c.read
}

func (c *client) readEvents() {
	defer close(c.read)
	for n := range c.rc.Events() {
		c.events.Add(1)
		if n.Method != "event.job" {
			continue
		}
		var ev jobs.Event
		if json.Unmarshal(n.Params, &ev) != nil || ev.JobID == "" {
			continue
		}
		now := time.Now()
		c.mu.Lock()
		je := c.seen[ev.JobID]
		if je == nil {
			je = &jobEvents{}
			c.seen[ev.JobID] = je
		}
		switch st := jobs.State(ev.Type); {
		case ev.Type == "started":
			je.started = now
		case st.Final():
			je.finished, je.state = now, st
		}
		c.mu.Unlock()
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// await blocks until the job's final event arrived, falling back to
// job.status when none came within pollAfter.
func (c *client) await(id string) (jobEvents, error) {
	timer := time.NewTimer(pollAfter)
	defer timer.Stop()
	for {
		c.mu.Lock()
		je := c.seen[id]
		if je != nil && je.state != "" {
			delete(c.seen, id)
			c.mu.Unlock()
			return *je, nil
		}
		c.mu.Unlock()
		select {
		case <-c.wake:
		case <-timer.C:
			snap, err := c.rc.Status(id)
			if err != nil {
				return jobEvents{}, err
			}
			if snap.State.Final() {
				c.missed.Add(1)
				now := time.Now()
				return jobEvents{started: now, finished: now, state: snap.State}, nil
			}
			timer.Reset(pollAfter)
		}
	}
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	id                                   string
	submit, ack, resultStart, resultDone time.Time
	ev                                   jobEvents
	raw                                  json.RawMessage
	err                                  error
}

func (c *client) do(spec jobs.Spec) jobRecord {
	r := jobRecord{submit: time.Now()}
	snap, err := c.rc.Submit(spec)
	r.ack = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	r.id = snap.ID
	if r.ev, r.err = c.await(r.id); r.err != nil {
		return r
	}
	if r.ev.state != jobs.StateDone {
		r.err = fmt.Errorf("job %s ended %s", r.id, r.ev.state)
		return r
	}
	r.resultStart = time.Now()
	r.raw, r.err = c.rc.RawResult(r.id)
	r.resultDone = time.Now()
	return r
}

// daemonDetail is what a repetition keeps for the per-layer metrics:
// each checked job's client-side phase times (ms, or µs for the RPC
// round trips) and result size, and the clients' event counts.
type daemonDetail struct {
	queue, exec, submit, result, size []float64
	events, missed                    int64
}

func (d *daemonInstance) rep(tr *tracer) repStats {
	recs := make([]jobRecord, len(d.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	events0 := d.events()
	start := time.Now()
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				recs[i] = c.do(d.specs[i])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	dd := &daemonDetail{events: d.events() - events0}
	for _, c := range d.clients {
		dd.missed += c.missed.Load()
	}
	st := repStats{wall: wall, attempted: len(recs), detail: dd}

	for i, r := range recs {
		why := ""
		if r.err != nil {
			why = r.err.Error()
		} else {
			why = checkJob(d.specs[i], r.raw, i%checkEvery == 0)
		}
		if why != "" {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("job %d (%s): %s", i, d.specs[i].Kind, why))
			continue
		}
		st.units++
		st.ops = append(st.ops, r.resultDone.Sub(r.submit))
		dd.queue = append(dd.queue, ms(later(r.ack, r.ev.started).Sub(r.ack)))
		dd.exec = append(dd.exec, ms(r.ev.finished.Sub(r.ev.started)))
		dd.submit = append(dd.submit, ms(r.ack.Sub(r.submit))*1e3)
		dd.result = append(dd.result, ms(r.resultDone.Sub(r.resultStart))*1e3)
		dd.size = append(dd.size, float64(len(r.raw)))
		root := tr.add(0, 0, "daemon.job", r.id, r.submit, r.resultDone)
		tr.add(0, root, "rpc.job.submit", r.id, r.submit, r.ack)
		tr.add(0, root, "jobs.queue", r.id, r.ack, later(r.ack, r.ev.started))
		tr.add(0, root, "jobs.exec", r.id, r.ev.started, r.ev.finished)
		tr.add(0, root, "rpc.job.result", r.id, r.resultStart, r.resultDone)
	}
	return st
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func (d *daemonInstance) events() int64 {
	n := int64(0)
	for _, c := range d.clients {
		n += c.events.Load()
	}
	return n
}

// checkJob decodes a job's result and checks it: every run and sweep
// cell uniformly deployed with gaps ⌊n/k⌋/⌈n/k⌉, every exploration
// complete and counterexample-free. With direct set, the result bytes
// must also equal json.Marshal of jobs.Execute on the same spec.
func checkJob(spec jobs.Spec, raw json.RawMessage, direct bool) string {
	var res jobs.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return err.Error()
	}
	switch spec.Kind {
	case jobs.KindExplore:
		if x := res.Explore; x == nil || !x.Complete || x.Counterexample != nil {
			return "exploration incomplete or refuted"
		}
	default:
		want := 1
		if spec.Kind == jobs.KindSweep {
			want = len(spec.Ns) * len(spec.Ks)
		}
		if len(res.Cells) != want {
			return fmt.Sprintf("%d cells, want %d", len(res.Cells), want)
		}
		for _, c := range res.Cells {
			if c.Error != "" || !c.Uniform {
				return fmt.Sprintf("cell %d: uniform=%v error=%q", c.Index, c.Uniform, c.Error)
			}
			if why := checkDeployment(c.N, c.K, c.Positions, c.Gaps); why != "" {
				return fmt.Sprintf("cell %d: %s", c.Index, why)
			}
		}
	}
	if direct {
		want, err := jobs.Execute(spec, 1)
		if err != nil {
			return err.Error()
		}
		b, err := json.Marshal(want)
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(raw, b) {
			return "daemon result bytes differ from jobs.Execute"
		}
	}
	return ""
}

func (d *daemonInstance) layers(tr *tracer, reps []repStats, m map[string]float64) error {
	var (
		queue, exec, lat, submit, result, size []float64
		events, attempted                      int64
	)
	for _, r := range reps {
		dd := r.detail.(*daemonDetail)
		queue = append(queue, dd.queue...)
		exec = append(exec, dd.exec...)
		submit = append(submit, dd.submit...)
		result = append(result, dd.result...)
		size = append(size, dd.size...)
		for _, d := range r.ops {
			lat = append(lat, ms(d))
		}
		events += dd.events
		attempted += int64(r.attempted)
		m["jobs.events_missed"] += float64(dd.missed)
	}
	m["jobs.queue_wait_ms_p50"] = median(queue)
	m["jobs.queue_wait_ms_p99"] = quantile(queue, 0.99)
	m["jobs.exec_ms_p50"] = median(exec)
	m["jobs.job_p99_ms"] = quantile(lat, 0.99)
	m["jobs.job_samples"] = float64(len(lat))
	if attempted > 0 {
		m["jobs.events_per_job"] = float64(events) / float64(attempted) / daemonClients
	}
	m["rpc.submit_rtt_us_p50"] = median(submit)
	m["rpc.result_rtt_us_p50"] = median(result)
	m["rpc.result_bytes_p50"] = median(size)

	// daemon.status round trips on the idle daemon: the RPC framing alone.
	c := d.clients[0].rc
	start := time.Now()
	for i := 0; i < 1000 && (i < 100 || time.Since(start) < d.env.probe); i++ {
		t := time.Now()
		st, err := c.DaemonStatus()
		if err != nil {
			return err
		}
		tr.observe("rpc.status_rtt", float64(time.Since(t)))
		if i == 0 {
			var stats jobs.Stats
			if err := json.Unmarshal(st.Stats, &stats); err != nil {
				return err
			}
			m["jobs.events_dropped"] = float64(stats.Dropped)
		}
	}
	m["rpc.status_rtt_us_p50"] = tr.quantile("rpc.status_rtt", 0.5) / 1e3
	m["rpc.status_rtt_us_p99"] = tr.quantile("rpc.status_rtt", 0.99) / 1e3

	// The same specs executed directly, without queue, events or RPC.
	start = time.Now()
	for i := 0; i == 0 || (i < len(d.specs) && time.Since(start) < d.env.probe); i++ {
		t := time.Now()
		if _, err := jobs.Execute(d.specs[i], 1); err != nil {
			return err
		}
		tr.observe("jobs.execute_direct", float64(time.Since(t)))
	}
	m["jobs.execute_direct_ms_p50"] = tr.p50("jobs.execute_direct") / 1e6

	// The sim layer on the run jobs' configurations.
	var cfgs []simConfig
	for _, s := range d.specs {
		if s.Kind != jobs.KindRun || len(cfgs) == 50 {
			continue
		}
		alg, err := jobs.ParseAlgorithm(s.Algorithm)
		if err != nil {
			return err
		}
		cfg, err := experiments.Spec{N: s.N, K: s.K, Workload: experiments.WorkloadRandom, Seed: s.Seed}.Config()
		if err != nil {
			return err
		}
		sc, err := newSimConfig(alg, cfg, nil)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, sc)
	}
	if len(cfgs) == 0 {
		return errors.New("no run jobs to probe")
	}
	_, err := simLayers(newProber(tr, d.env.seed, d.env.probe), cfgs, m)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
