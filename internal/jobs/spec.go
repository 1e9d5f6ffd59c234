package jobs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"agentring"
	"agentring/internal/experiments"
)

// ErrSpec wraps every spec validation/compilation error.
var ErrSpec = errors.New("jobs: invalid spec")

// Kind selects what a job does.
type Kind string

// Job kinds.
const (
	// KindRun executes one configuration and reports it as one cell.
	KindRun Kind = "run"
	// KindSweep executes a grid of configurations (Ns x Ks) as one job,
	// one cell per grid point, batched over the worker pool.
	KindSweep Kind = "sweep"
	// KindExplore model-checks one configuration's schedule space
	// (agentring.Explore). Explorations are single-cell; the job context
	// reaches into the search, so job.cancel stops an exploration at the
	// next frontier pop of any worker (after at most one expansion per
	// worker), and the search streams "progress" events carrying live
	// explorer counters.
	KindExplore Kind = "explore"
)

// Spec is the JSON-serializable description of one job, the payload of
// the job.submit RPC. Algorithms, topologies, workloads, schedulers and
// fault plans are all named by the same strings the CLIs already use,
// so a spec never embeds Go constant values.
type Spec struct {
	Kind      Kind   `json:"kind"`
	Algorithm string `json:"algorithm"`          // native | native-n | logspace | relaxed | naive | firstfit | binative
	Topology  string `json:"topology,omitempty"` // agentring.ParseTopology spec; "" = unidirectional ring
	// N sizes the ring families; a torus or a tree has its own size and
	// ignores it. K is the agent count the Workload generator places.
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`
	// Homes pins the initial placement explicitly (run/explore only),
	// so K may be omitted; empty selects the Workload generator.
	Homes    []int  `json:"homes,omitempty"`
	Workload string `json:"workload,omitempty"` // random | clustered | uniform | periodic; "" = random
	Degree   int    `json:"degree,omitempty"`   // symmetry degree for the periodic workload
	Seed     int64  `json:"seed,omitempty"`
	// Scheduler names the interleaving policy for run/sweep cells:
	// roundrobin (default) | random | synchronous (or sync) | adversarial.
	Scheduler string `json:"scheduler,omitempty"`
	Faults    string `json:"faults,omitempty"` // named DynRing plan or raw agentring.ParseFaults spec
	// Adversary attaches an online fault adversary to an explore job, in
	// agentring.ParseAdversary "K/D[/T]" syntax: the search then branches
	// over link failures and repairs within the budget, and the report
	// carries the worst-outage verdict. KindExplore only; mutually
	// exclusive with Faults. This is what overnight adversary sweeps
	// submit, one explore job per (placement, budget) cell.
	Adversary string `json:"adversary,omitempty"`
	// Ns/Ks widen a sweep into a grid; empty axes default to {N}/{K}.
	// Grid points with k > n/2 are skipped (unscatterable), as in the
	// paper's Table 1 grids. A spec's cells may total at most 1<<24
	// nodes.
	Ns []int `json:"ns,omitempty"`
	Ks []int `json:"ks,omitempty"`
	// Explore bounds (KindExplore only); zero selects the defaults.
	// MaxDurationMS is a wall-clock budget in milliseconds: expiring it
	// truncates the search (complete=false), it does not fail the job.
	MaxDepth      int `json:"max_depth,omitempty"`
	MaxStates     int `json:"max_states,omitempty"`
	MaxTotalMoves int `json:"max_total_moves,omitempty"`
	MaxDurationMS int `json:"max_duration_ms,omitempty"`
	// Workers sizes the explorer's work-stealing pool (KindExplore
	// only; run/sweep parallelism is the engine's worker pool). The
	// covered state set and any counterexample are identical for every
	// value — but effort diagnostics (pruned, replays, sleep_skips,
	// deepest) are visit-order dependent and so only reproducible
	// run-to-run at the default of sequential search.
	Workers int `json:"workers,omitempty"`
	// Priority orders the queue: higher runs earlier, FIFO within a
	// priority.
	Priority int `json:"priority,omitempty"`
	// TraceEvents, if positive, streams up to that many live execution
	// events from the job's cells to event subscribers.
	TraceEvents int `json:"trace_events,omitempty"`
}

// ParseAlgorithm resolves the spec's algorithm name.
func ParseAlgorithm(name string) (agentring.Algorithm, error) {
	alg, err := experiments.ParseAlgorithm(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return alg, nil
}

// ParseInts parses a comma-separated integer list such as "64,128,256",
// the form the CLIs take homes and grid axes in. The empty string is
// the empty list.
func ParseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// maxNodes bounds the nodes one spec's cells may total. Compile builds
// every cell's placement up front, and a random placement permutes all
// n nodes, so this bound is what keeps one job.submit from allocating
// without limit inside the daemon. It sits above the n = 10^7 of the
// largest benchmarked run.
const maxNodes = 1 << 24

// Plan is a compiled spec, ready for Run: the resolved algorithm and
// either the run/sweep cells in grid order or an exploration's
// configuration and options. Callers read it; only Compile builds one.
type Plan struct {
	kind        Kind
	traceEvents int
	Algorithm   agentring.Algorithm
	Cells       []agentring.Job          // run, sweep
	Explore     *agentring.Config        // explore
	Options     agentring.ExploreOptions // explore
}

// cell is one grid point resolved to its substrate.
type cell struct {
	topo *agentring.Topology
	k    int
	seed int64
}

// Compile validates a spec and resolves it into a Plan. Every failure
// wraps ErrSpec, so admission rejects a bad spec before it occupies
// queue space.
func Compile(s Spec) (Plan, error) {
	alg, err := ParseAlgorithm(s.Algorithm)
	if err != nil {
		return Plan{}, err
	}
	if s.Adversary != "" && s.Kind != KindExplore {
		return Plan{}, fmt.Errorf("%w: adversary budgets are explore-only (the engine's run path replays fixed fault schedules)", ErrSpec)
	}
	wl, err := experiments.ParseWorkload(s.Workload)
	if err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	sched, err := experiments.ParseScheduler(s.Scheduler)
	if err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	cells, err := s.grid()
	if err != nil {
		return Plan{}, err
	}
	p := Plan{kind: s.Kind, traceEvents: s.TraceEvents, Algorithm: alg}
	for _, c := range cells {
		cfg, err := s.config(c, wl, sched)
		if err != nil {
			return Plan{}, err
		}
		p.Cells = append(p.Cells, agentring.Job{Algorithm: alg, Config: cfg})
	}
	if s.Kind != KindExplore {
		return p, nil
	}
	p.Explore, p.Cells = &p.Cells[0].Config, nil
	p.Options = agentring.ExploreOptions{
		Budget: agentring.Budget{
			MaxDepth:      s.MaxDepth,
			MaxStates:     s.MaxStates,
			MaxTotalMoves: s.MaxTotalMoves,
			MaxDuration:   time.Duration(s.MaxDurationMS) * time.Millisecond,
		},
		Workers: s.Workers,
	}
	if s.Adversary != "" {
		if s.Faults != "" {
			return Plan{}, fmt.Errorf("%w: adversary and faults are mutually exclusive", ErrSpec)
		}
		budget, err := agentring.ParseAdversary(s.Adversary)
		if err != nil {
			return Plan{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		p.Options.Adversary = &budget
	}
	return p, nil
}

// grid resolves the spec's cells to their substrates: one cell for a
// run or an exploration, and for a sweep every point of Ns x Ks with
// k <= n/2, seeded Seed + n*1000 + k. A torus or a tree fixes n to its
// own size. The cells' sizes are summed against maxNodes here, before
// any placement exists.
func (s Spec) grid() ([]cell, error) {
	ns, ks := []int{s.N}, []int{s.K}
	sweep := s.Kind == KindSweep
	switch s.Kind {
	case KindRun, KindExplore:
	case KindSweep:
		if len(s.Homes) > 0 {
			return nil, fmt.Errorf("%w: sweep jobs generate placements from the workload; homes is run/explore-only", ErrSpec)
		}
		if len(s.Ns) > 0 {
			ns = s.Ns
		}
		if len(s.Ks) > 0 {
			ks = s.Ks
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrSpec, s.Kind)
	}
	fixed, err := agentring.ParseTopology(s.Topology, 1)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if fixed.Kind() == agentring.KindTorus || fixed.Kind() == agentring.KindTree {
		ns = []int{fixed.Size()}
	} else {
		fixed = nil
	}
	if len(ns)*len(ks) > maxNodes {
		return nil, fmt.Errorf("%w: a grid of %d x %d points exceeds %d", ErrSpec, len(ns), len(ks), maxNodes)
	}
	var (
		cells []cell
		total int
	)
	for _, n := range ns {
		topo := fixed
		for _, k := range ks {
			if sweep && k > n/2 {
				continue // not scatterable
			}
			if topo == nil {
				if topo, err = agentring.ParseTopology(s.Topology, n); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrSpec, err)
				}
			}
			if topo.Size() > maxNodes-total {
				return nil, fmt.Errorf("%w: cells total more than %d nodes", ErrSpec, maxNodes)
			}
			total += topo.Size()
			seed := s.Seed
			if sweep {
				seed += int64(n*1000 + k)
			}
			cells = append(cells, cell{topo, k, seed})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("%w: sweep grid ns=%v ks=%v has no scatterable cell (need k <= n/2)", ErrSpec, ns, ks)
	}
	return cells, nil
}

// config builds one cell's configuration: the spec's explicit homes or
// else the workload's placement on the cell's substrate, the scheduler,
// and the fault plan resolved against the substrate's size.
func (s Spec) config(c cell, wl experiments.WorkloadKind, sched agentring.SchedulerKind) (agentring.Config, error) {
	n := c.topo.Size()
	homes := slices.Clone(s.Homes)
	if len(homes) == 0 {
		var err error
		homes, err = experiments.Spec{N: n, K: c.k, Workload: wl, Degree: s.Degree, Seed: c.seed}.Homes()
		if err != nil {
			return agentring.Config{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
	}
	faults, err := experiments.ResolveFaults(s.Faults, n)
	if err != nil {
		return agentring.Config{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return agentring.Config{N: n, Topology: c.topo, Homes: homes, Scheduler: sched, Seed: c.seed, Faults: faults}, nil
}

// CellResult is one completed cell of a run/sweep job: the one row
// shape, shared by the daemon's job.result payload, the client's -local
// path and the sweep CLI's NDJSON stream.
type CellResult struct {
	Index          int    `json:"index"`
	Algorithm      string `json:"algorithm"`
	Topology       string `json:"topology"`
	N              int    `json:"n"`
	K              int    `json:"k"`
	Seed           int64  `json:"seed"`
	Homes          []int  `json:"homes"`
	SymmetryDegree int    `json:"symmetry_degree"`
	Uniform        bool   `json:"uniform"`
	Why            string `json:"why,omitempty"`
	Positions      []int  `json:"positions"`
	Gaps           []int  `json:"gaps"`
	Moves          int    `json:"total_moves"`
	MaxMoves       int    `json:"max_moves"`
	Rounds         int    `json:"rounds"`
	Steps          int    `json:"steps"`
	PeakWords      int    `json:"peak_words"`
	PeakBits       int    `json:"peak_bits"`
	Messages       int    `json:"messages"`
	Error          string `json:"error,omitempty"`
}

// Result is a finished job's payload: cells for run/sweep jobs, the
// exploration report for explore jobs.
type Result struct {
	Kind    Kind                     `json:"kind"`
	Cells   []CellResult             `json:"cells,omitempty"`
	Explore *agentring.ExploreReport `json:"explore,omitempty"`
}

func cellResult(i int, res agentring.JobResult) CellResult {
	out := CellResult{
		Index:     i,
		Algorithm: res.Job.Algorithm.String(),
		N:         res.Job.Config.N,
		K:         len(res.Job.Config.Homes),
		Seed:      res.Job.Config.Seed,
		Homes:     res.Job.Config.Homes,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	rep := res.Report
	out.Topology = rep.Topology
	out.N = rep.N
	out.K = rep.K
	out.SymmetryDegree = rep.SymmetryDegree
	out.Uniform = rep.Uniform
	out.Why = rep.Why
	out.Positions = rep.Positions
	out.Gaps = rep.Gaps
	out.Moves = rep.TotalMoves
	out.MaxMoves = rep.MaxMoves
	out.Rounds = rep.Rounds
	out.Steps = rep.Steps
	out.PeakWords = rep.PeakWords
	out.PeakBits = rep.PeakBits
	out.Messages = rep.MessagesSent
	return out
}
