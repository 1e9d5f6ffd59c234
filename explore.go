package agentring

import (
	"context"
	"fmt"
	"time"

	"agentring/internal/explore"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// Budget bounds one schedule-space exploration. Every field is a pure
// budget: exhausting it stops the search where it is and reports
// Complete == false (with the cut branches counted in Truncated); none
// of them is an error. The zero value selects generous defaults for
// MaxDepth and MaxStates and leaves the rest unbounded.
type Budget struct {
	// MaxDepth bounds the length of an explored schedule (decisions per
	// execution); zero selects a generous default.
	MaxDepth int
	// MaxStates bounds the number of distinct global states expanded;
	// zero selects a generous default.
	MaxStates int
	// MaxSteps is the per-replay engine step bound (0 = automatic); a
	// schedule that exceeds it is reported as a counterexample.
	MaxSteps int
	// MaxTotalMoves, if positive, turns any reached state whose total
	// move count exceeds it into a counterexample — a mechanical check
	// of the paper's move-complexity bounds along every schedule.
	MaxTotalMoves int
	// MaxDuration, if positive, bounds the search's wall-clock time.
	// When it expires the report is truncated, not an error — unlike a
	// context deadline, which aborts with the context's error.
	MaxDuration time.Duration
}

// ExploreProgress is one live snapshot of a running exploration,
// delivered to ExploreOptions.Progress.
type ExploreProgress struct {
	// States is the number of distinct global states expanded so far.
	States int64 `json:"states"`
	// Frontier is the number of schedule prefixes queued or being
	// expanded across the worker pool.
	Frontier int64 `json:"frontier"`
	// CacheHits counts replays that converged onto an already-explored
	// state.
	CacheHits int64 `json:"cache_hits"`
	// Replays and StepsReplayed measure the search's real cost so far.
	Replays       int64 `json:"replays"`
	StepsReplayed int64 `json:"steps_replayed"`
	// Elapsed is the wall-clock time since the search started, in
	// nanoseconds (time.Duration's native JSON encoding).
	Elapsed time.Duration `json:"elapsed"`
}

// ExploreOptions tunes a schedule-space exploration: a Budget plus
// search knobs.
type ExploreOptions struct {
	// Budget bounds the search.
	Budget Budget
	// Workers sizes the search's work-stealing worker pool; values <= 1
	// run sequentially. Every worker count covers the same state set
	// and reports the same counterexample — parallelism only changes
	// wall-clock time.
	Workers int
	// Adversary, if non-nil, runs the search against an online fault
	// adversary: link failures and repairs become choices of the
	// schedule, bounded by the budget, so the exploration quantifies
	// over every failure pattern the budget admits instead of the fixed
	// timeline Config.Faults replays. Mutually exclusive with
	// Config.Faults. When the search finds a counterexample the report
	// additionally carries WorstOutage — the minimal concurrent-outage
	// budget that already breaks the algorithm.
	Adversary *AdversaryBudget
	// Progress, if non-nil, receives periodic snapshots of the running
	// search (roughly every 200ms, plus a final one). Called from a
	// dedicated goroutine concurrently with the search; must be cheap
	// and concurrency-safe. No calls happen after Explore returns.
	Progress func(ExploreProgress)
}

// ExploreCounterexample is a concrete schedule defeating uniform
// deployment (or a bound), found by Explore.
type ExploreCounterexample struct {
	// Prefix is the sequence of decision indices reproducing the
	// failure: replaying them from the initial configuration (the
	// engine's enabled-choice order is deterministic) reaches the
	// failing state.
	Prefix []int `json:"prefix"`
	// Reason says what failed.
	Reason string `json:"reason"`
	// Positions are the agents' final nodes in the failing state.
	Positions []int `json:"positions"`
	// Trace is the human-readable schedule listing.
	Trace string `json:"trace"`
}

// ExploreReport is the outcome of one schedule-space exploration.
type ExploreReport struct {
	// Algorithm and configuration echo. Topology names the substrate
	// explored ("ring(6)", "biring(5)", "torus(2x3)", ...); Faults is
	// the fault schedule explored alongside the agent interleavings, in
	// ParseFaults syntax (empty for a static topology).
	Algorithm string `json:"algorithm"`
	Topology  string `json:"topology"`
	N         int    `json:"n"`
	K         int    `json:"k"`
	Faults    string `json:"faults,omitempty"`
	// Adversary echoes the online adversary budget in ParseAdversary
	// syntax (empty when the search ran without one).
	Adversary string `json:"adversary,omitempty"`

	// States counts distinct global states expanded; Pruned counts
	// replays that converged onto an already-explored state; SleepSkips
	// counts interleavings suppressed by the partial-order reduction.
	States     int `json:"states"`
	Pruned     int `json:"pruned"`
	SleepSkips int `json:"sleep_skips"`
	// Replays counts engine replays and StepsReplayed their total
	// atomic actions — the search's real cost.
	Replays       int   `json:"replays"`
	StepsReplayed int64 `json:"steps_replayed"`
	// Terminals counts quiescent leaves reached; DistinctTerminals the
	// distinct terminal configurations among them.
	Terminals         int `json:"terminals"`
	DistinctTerminals int `json:"distinct_terminals"`
	// Truncated counts branches cut by the Budget (MaxDepth, MaxStates
	// or MaxDuration); Deepest is the longest schedule expanded.
	Truncated int `json:"truncated"`
	Deepest   int `json:"deepest"`
	// Complete reports that the whole schedule space was covered within
	// the bounds: every interleaving from the initial configuration is
	// accounted for, up to commuting reorderings and converged states.
	Complete bool `json:"complete"`
	// Counterexample is the first failing schedule found, or nil.
	Counterexample *ExploreCounterexample `json:"counterexample,omitempty"`
	// WorstOutage, present only for adversary-mode searches, reports
	// whether the budget admits a breaking schedule and, if so, the
	// minimal concurrent-outage budget that already does (see
	// WorstOutage).
	WorstOutage *WorstOutage `json:"worst_outage,omitempty"`
}

// Explore model-checks the algorithm's behaviour over the asynchronous
// schedule space of one initial configuration: it enumerates all
// interleavings of atomic actions (up to commuting reorderings and
// converged states) within the given budget, and reports the first
// schedule ending in a non-uniform terminal configuration, agent
// failure, or exceeded bound. A nil Counterexample with Complete true
// is a mechanically checked proof that the algorithm deploys uniformly
// under every asynchronous schedule from this configuration.
//
// The search runs on a work-stealing worker pool (ExploreOptions.
// Workers) and its report is deterministic for any worker count: the
// covered state set is visit-order independent, and a parallel search
// that finds a violation re-runs sequentially to pin the canonical
// (lexicographically least) counterexample. Config.Topology selects the
// substrate (default: the unidirectional ring of Config.N nodes); the
// partial-order reduction commutes actions per directed-edge FIFO.
//
// Config.Faults makes the substrate dynamic: the search enumerates
// every agent interleaving around the fixed failure/repair timeline,
// and a terminal state with agents frozen on a never-repaired link is a
// counterexample. Step-indexed mutations localize, rather than disable,
// the reduction: sleep sets stratify around the depths where a fault
// fires, and state convergence is only recognized between equal-length
// schedules — fault searches cover the same space with more replays.
//
// ExploreOptions.Adversary goes further: the fault set becomes a choice
// of the schedule itself, and the search branches over every failure
// and repair the budget admits, interleaved every way with the agent
// actions. A complete counterexample-free adversary search proves the
// algorithm tolerates any eventually-repaired outage pattern within the
// budget; a breaking one additionally reports WorstOutage, the minimal
// concurrent-outage budget that already defeats the algorithm.
//
// Cancelling ctx aborts the search mid-flight: Explore then returns the
// partial report alongside ctx's error. A nil ctx is treated as
// context.Background(). Config's Scheduler, Seed and TraceCapacity are
// ignored: the explorer drives scheduling itself.
func Explore(ctx context.Context, alg Algorithm, cfg Config, opts ExploreOptions) (ExploreReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st, n, err := resolveTopology(cfg)
	if err != nil {
		return ExploreReport{}, err
	}
	cfg.N = n
	k := len(cfg.Homes)
	if k < 1 {
		return ExploreReport{}, fmt.Errorf("%w: no agents", ErrConfig)
	}
	homes := make([]ring.NodeID, k)
	for i, h := range cfg.Homes {
		homes[i] = ring.NodeID(h)
	}
	// Validate eagerly (duplicate homes, unknown algorithm) so setup
	// mistakes surface as ErrConfig before the search starts.
	if _, err := buildPrograms(alg, cfg, n, k); err != nil {
		return ExploreReport{}, err
	}
	var adv *AdversaryBudget
	if opts.Adversary != nil {
		if len(cfg.Faults) > 0 {
			return ExploreReport{}, fmt.Errorf("%w: Adversary and Config.Faults are mutually exclusive", ErrConfig)
		}
		nb, nerr := opts.Adversary.normalize()
		if nerr != nil {
			return ExploreReport{}, nerr
		}
		adv = &nb
	}
	var progress func(explore.Progress)
	if opts.Progress != nil {
		emit := opts.Progress
		progress = func(p explore.Progress) {
			emit(ExploreProgress{
				States:        p.States,
				Frontier:      p.Frontier,
				CacheHits:     p.CacheHits,
				Replays:       p.Replays,
				StepsReplayed: p.StepsReplayed,
				Elapsed:       p.Elapsed,
			})
		}
	}
	// search runs one exploration under the given adversary budget; the
	// worst-outage probe reruns it with smaller ones.
	search := func(ab *sim.AdversaryBudget, progress func(explore.Progress)) (explore.Report, error) {
		return explore.Explore(ctx, explore.Setup{
			N:         n,
			Topology:  st,
			Homes:     homes,
			Faults:    faultSchedule(cfg.Faults),
			Adversary: ab,
			Programs: func() ([]sim.Program, error) {
				return buildPrograms(alg, cfg, n, k)
			},
		}, explore.Options{
			MaxDepth:      opts.Budget.MaxDepth,
			MaxStates:     opts.Budget.MaxStates,
			MaxSteps:      opts.Budget.MaxSteps,
			MaxTotalMoves: opts.Budget.MaxTotalMoves,
			MaxDuration:   opts.Budget.MaxDuration,
			Workers:       opts.Workers,
			Progress:      progress,
		})
	}
	var advSim *sim.AdversaryBudget
	if adv != nil {
		advSim = adv.simBudget()
	}
	rep, err := search(advSim, progress)
	if err != nil && ctx.Err() == nil {
		return ExploreReport{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	out := ExploreReport{
		Algorithm:         alg.String(),
		Topology:          topologyName(cfg),
		N:                 cfg.N,
		K:                 k,
		Faults:            FormatFaults(cfg.Faults),
		States:            rep.States,
		Pruned:            rep.Pruned,
		SleepSkips:        rep.SleepSkips,
		Replays:           rep.Replays,
		StepsReplayed:     rep.StepsReplayed,
		Terminals:         rep.Terminals,
		DistinctTerminals: rep.DistinctTerminals,
		Truncated:         rep.Truncated,
		Deepest:           rep.Deepest,
		Complete:          rep.Complete,
	}
	if cex := rep.Counterexample; cex != nil {
		out.Counterexample = &ExploreCounterexample{
			Prefix:    cex.Prefix,
			Reason:    cex.Reason,
			Positions: toInts(cex.Positions),
			Trace:     cex.String(),
		}
	}
	if adv != nil {
		out.Adversary = FormatAdversary(*adv)
		if err == nil {
			out.WorstOutage = worstOutageProbe(*adv, rep.Counterexample != nil, search)
		}
	}
	// A cancelled context surfaces as the context's error with the
	// partial report attached, so callers can both distinguish an abort
	// from a finding and still see how far the search got.
	return out, err
}

// worstOutageProbe computes ExploreReport.WorstOutage: when the
// full-budget adversary search found a counterexample, it re-searches
// under ascending concurrent-outage budgets k' = 0 (fault-free), 1, ...
// and returns the first k' that admits a breaking schedule. The probe
// holds RepairWithin and MaxTotal fixed and reuses the caller's bounds;
// a k' whose search exhausts a budget without a finding counts as
// tolerated, consistent with how incomplete searches report everywhere
// else. The full-budget search already broke, so the ascent terminates
// at MaxConcurrent at the latest without re-running it.
func worstOutageProbe(adv AdversaryBudget, breaks bool, search func(*sim.AdversaryBudget, func(explore.Progress)) (explore.Report, error)) *WorstOutage {
	wo := &WorstOutage{
		Breaks:        breaks,
		MinConcurrent: -1,
		RepairWithin:  adv.RepairWithin,
		MaxTotal:      adv.MaxTotal,
	}
	if !breaks {
		return wo
	}
	wo.MinConcurrent = adv.MaxConcurrent
	for kp := 0; kp < adv.MaxConcurrent; kp++ {
		var ab *sim.AdversaryBudget
		if kp > 0 {
			ab = &sim.AdversaryBudget{MaxConcurrent: kp, RepairWithin: adv.RepairWithin, MaxTotal: adv.MaxTotal}
		}
		rep, err := search(ab, nil)
		if err != nil {
			break
		}
		if rep.Counterexample != nil {
			wo.MinConcurrent = kp
			break
		}
	}
	return wo
}
