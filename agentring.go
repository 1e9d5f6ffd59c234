// Package agentring is a library for uniform deployment of mobile
// agents in asynchronous unidirectional rings, reproducing
//
//	Shibata, Mega, Ooshita, Kakugawa, Masuzawa:
//	"Uniform deployment of mobile agents in asynchronous rings",
//	PODC 2016 / JPDC 119:92-106 (2018).
//
// k anonymous agents start on distinct nodes of an anonymous n-node
// unidirectional ring with FIFO links; each carries one indelible token
// and can message co-located agents. The uniform deployment problem
// asks them to spread so that adjacent agents are ⌊n/k⌋ or ⌈n/k⌉ apart.
//
// Three algorithms from the paper are provided:
//
//   - Native (Algorithm 1): knowledge of k or n, termination detection,
//     O(k log n) agent memory, O(n) time, O(kn) total moves.
//   - LogSpace (Algorithms 2+3): knowledge of k, termination detection,
//     O(log n) memory, O(n log k) time, O(kn) total moves.
//   - Relaxed (Algorithms 4–6): no knowledge of k or n, no termination
//     detection, O((k/l) log(n/l)) memory, O(n/l) time, O(kn/l) moves
//     for an initial configuration of symmetry degree l.
//
// Plus two foils: NaiveHalting, the estimate-then-halt straw man that
// replays the Theorem 5 impossibility, and FirstFit, a
// coordination-free scatter heuristic ablating the base-node election.
//
// Basic use:
//
//	report, err := agentring.Run(agentring.Native, agentring.Config{
//		N:     16,
//		Homes: []int{0, 1, 5, 11},
//	})
//	// report.Uniform == true; report.Positions are 4 apart.
package agentring

import (
	"errors"
	"fmt"
	"time"

	"agentring/internal/baseline"
	"agentring/internal/core"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// Algorithm selects which deployment algorithm the agents execute.
type Algorithm int

// Available algorithms.
const (
	// Native is Algorithm 1 of the paper (agents know k).
	Native Algorithm = iota + 1
	// NativeKnowN is Algorithm 1 with knowledge of n instead of k.
	NativeKnowN
	// LogSpace is Algorithms 2+3 (agents know k, O(log n) memory).
	LogSpace
	// Relaxed is Algorithms 4-6 (no knowledge, no termination detection).
	Relaxed
	// NaiveHalting is the unsound estimate-then-halt program used to
	// demonstrate the Theorem 5 impossibility; it is expected to fail on
	// pumped rings.
	NaiveHalting
	// FirstFit is the uncoordinated baseline heuristic (knows n and k);
	// it usually fails to achieve exact uniformity.
	FirstFit
	// BiNative is the bidirectional-ring variant of Algorithm 1: the
	// selection phase is identical (one forward circuit over the
	// tokens), but the deployment phase takes the shorter way around —
	// backward via port 1 when the target lies closer behind. Final
	// positions equal Native's; total moves are never more. Requires a
	// bidirectional-ring topology (Config.Topology = NewBiRingTopology).
	BiNative
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Native:
		return "native(k)"
	case NativeKnowN:
		return "native(n)"
	case LogSpace:
		return "logspace"
	case Relaxed:
		return "relaxed"
	case NaiveHalting:
		return "naive-halting"
	case FirstFit:
		return "first-fit"
	case BiNative:
		return "binative(k)"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// SchedulerKind selects the interleaving policy of the asynchronous
// execution.
type SchedulerKind int

// Available schedulers.
const (
	// RoundRobin activates enabled agents cyclically (default).
	RoundRobin SchedulerKind = iota
	// RandomSched activates a uniformly random enabled agent; seed with
	// Config.Seed.
	RandomSched
	// Synchronous runs in rounds and reports the paper's ideal time in
	// Report.Rounds.
	Synchronous
	// Adversarial starves agents as long as the fairness bound
	// Config.AdversaryBound allows.
	Adversarial
)

// Config describes one run.
type Config struct {
	// N is the ring size. When Topology is set, N may be left zero (it
	// is derived) or must equal Topology.Size().
	N int
	// Topology selects the network substrate; nil means the paper's
	// default, the unidirectional ring of N nodes. See NewBiRingTopology,
	// NewTorusTopology, NewTreeTopology, ParseTopology.
	Topology *Topology
	// Homes are the agents' distinct initial nodes.
	Homes []int
	// Scheduler picks the interleaving policy; default RoundRobin.
	Scheduler SchedulerKind
	// Seed seeds the RandomSched scheduler.
	Seed int64
	// AdversaryBound is the Adversarial scheduler's fairness bound
	// (how long an enabled agent may be starved); default
	// sim.DefaultAdversaryBound.
	AdversaryBound int
	// Timeout bounds the wall-clock duration of a RunConcurrent
	// execution on the message-passing substrate; zero or negative
	// selects DefaultConcurrentTimeout. Run ignores it (the
	// deterministic engine is bounded by MaxSteps, not wall-clock
	// time).
	Timeout time.Duration
	// MaxSteps bounds the number of atomic actions (0 = automatic).
	MaxSteps int
	// Faults schedules link failures and repairs, making the topology
	// dynamic: each event fails or restores one directed edge between
	// atomic actions (see FaultEvent for the frozen-FIFO semantics and
	// ParseFaults for the command-line syntax). Empty means the static
	// topology of the paper. Run and Explore honour fault schedules;
	// RunConcurrent's message-passing substrate does not and rejects
	// configurations that carry one.
	Faults []FaultEvent
	// TraceCapacity, if positive, records up to that many execution
	// events into Report.Trace.
	TraceCapacity int
	// TraceSink, if non-nil, receives every execution event as the run
	// performs it — the streaming counterpart of TraceCapacity, for live
	// observers (the agentringd daemon's events.subscribe feed) that
	// must not buffer a whole run. Record is called synchronously from
	// the engine loop, so implementations must be fast and non-blocking.
	// A sink does not alter the run or Report.Trace in any way.
	TraceSink TraceSink
}

// TraceEvent is one streamed execution event (see Config.TraceSink).
// Agent events carry the acting agent's index; link mutations from a
// fault schedule carry Agent == -1 and name the edge's tail node.
type TraceEvent struct {
	Step   int    `json:"step"`
	Agent  int    `json:"agent"`
	Node   int    `json:"node"`
	Kind   string `json:"kind"` // arrive, wake, move, await, halt, token, broadcast, link-down, link-up
	Detail string `json:"detail,omitempty"`
}

// TraceSink receives execution events as they happen.
type TraceSink interface {
	Record(TraceEvent)
}

// TraceFunc adapts a function to the TraceSink interface.
type TraceFunc func(TraceEvent)

// Record implements TraceSink.
func (f TraceFunc) Record(ev TraceEvent) { f(ev) }

// ErrConfig is wrapped by all configuration errors from Run.
var ErrConfig = errors.New("agentring: invalid configuration")

// resolveTopology derives the engine substrate and node count from a
// Config: the explicit Topology when set (N, if non-zero, must agree),
// else the default unidirectional ring of N nodes.
func resolveTopology(cfg Config) (sim.Topology, int, error) {
	if cfg.Topology != nil {
		size := cfg.Topology.Size()
		if cfg.N != 0 && cfg.N != size {
			return nil, 0, fmt.Errorf("%w: N=%d disagrees with %s size %d", ErrConfig, cfg.N, cfg.Topology, size)
		}
		return cfg.Topology.inner, size, nil
	}
	if cfg.N < 1 {
		return nil, 0, fmt.Errorf("%w: ring size %d", ErrConfig, cfg.N)
	}
	r, err := ring.New(cfg.N)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return r, cfg.N, nil
}

// Run executes the chosen algorithm on the configured substrate (the
// unidirectional ring of Config.N nodes unless Config.Topology selects
// another) until quiescence and reports the outcome. The run is
// deterministic for a fixed configuration.
func Run(alg Algorithm, cfg Config) (Report, error) {
	st, n, err := resolveTopology(cfg)
	if err != nil {
		return Report{}, err
	}
	cfg.N = n
	k := len(cfg.Homes)
	if k < 1 {
		return Report{}, fmt.Errorf("%w: no agents", ErrConfig)
	}
	homes := make([]ring.NodeID, k)
	for i, h := range cfg.Homes {
		homes[i] = ring.NodeID(h)
	}
	programs, err := buildPrograms(alg, cfg, n, k)
	if err != nil {
		return Report{}, err
	}
	sched, err := buildScheduler(cfg)
	if err != nil {
		return Report{}, err
	}
	// The buffered trace and the public stream share the engine's one
	// sink, the trace first, so the stream cannot change what it records.
	var trace *sim.Trace
	var sink sim.TraceSink
	if cfg.TraceCapacity > 0 {
		trace = sim.NewTrace(cfg.TraceCapacity)
		sink = trace
	}
	if cfg.TraceSink != nil {
		public := cfg.TraceSink
		stream := sim.FuncSink(func(ev sim.Event) {
			public.Record(TraceEvent{Step: ev.Step, Agent: ev.Agent, Node: int(ev.Node), Kind: ev.Kind, Detail: ev.Detail})
		})
		if trace != nil {
			sink = sim.TeeSink{trace, stream}
		} else {
			sink = stream
		}
	}
	engine, err := sim.NewEngine(st, homes, programs, sim.Options{
		Scheduler: sched,
		MaxSteps:  cfg.MaxSteps,
		Sink:      sink,
		Faults:    faultSchedule(cfg.Faults),
	})
	if err != nil {
		return Report{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	res, runErr := engine.Run()
	report := buildReport(alg, cfg, res, trace)
	return report, runErr
}

func buildPrograms(alg Algorithm, cfg Config, n, k int) ([]sim.Program, error) {
	if alg == BiNative {
		// The program's port-1 moves assume the backward link of a
		// bidirectional ring; reject substrates where port 1 means
		// something else (torus south) or is absent (ring, tree).
		if cfg.Topology == nil || cfg.Topology.Kind() != KindBiRing {
			return nil, fmt.Errorf("%w: %s requires a biring topology (Config.Topology = NewBiRingTopology)", ErrConfig, alg)
		}
	}
	mk := func() (sim.Program, error) {
		switch alg {
		case Native:
			return core.NewAlg1(core.KnowAgents, k)
		case NativeKnowN:
			return core.NewAlg1(core.KnowNodes, n)
		case LogSpace:
			return core.NewAlg2(k)
		case Relaxed:
			return core.NewRelaxed(), nil
		case NaiveHalting:
			return core.NewNaiveEstimator(), nil
		case FirstFit:
			return baseline.NewFirstFit(n, k)
		case BiNative:
			return core.NewBiNative(k)
		default:
			return nil, fmt.Errorf("%w: unknown algorithm %d", ErrConfig, int(alg))
		}
	}
	programs := make([]sim.Program, k)
	for i := range programs {
		p, err := mk()
		if err != nil {
			return nil, err
		}
		programs[i] = p
	}
	return programs, nil
}

func buildScheduler(cfg Config) (sim.Scheduler, error) {
	switch cfg.Scheduler {
	case RoundRobin:
		return sim.NewRoundRobin(), nil
	case RandomSched:
		return sim.NewRandom(cfg.Seed), nil
	case Synchronous:
		return sim.NewSynchronous(), nil
	case Adversarial:
		bound := cfg.AdversaryBound
		if bound == 0 {
			bound = sim.DefaultAdversaryBound
		}
		return sim.NewAdversarial(bound), nil
	default:
		return nil, fmt.Errorf("%w: unknown scheduler %d", ErrConfig, int(cfg.Scheduler))
	}
}
