package agentring

import (
	"context"
	"fmt"

	"agentring/internal/explore"
	"agentring/internal/sim"
)

// Budget bounds one schedule-space exploration. MaxDepth, MaxStates
// and MaxDuration truncate the search: exhausting one reports Complete
// == false, with the cut branches counted in Truncated, and no error
// (unlike a context deadline, which aborts with the context's error).
// MaxSteps and MaxTotalMoves are checked bounds: a schedule that passes
// one is reported as a counterexample, which makes MaxTotalMoves a
// mechanical check of the paper's move-complexity bounds along every
// schedule. The zero value selects generous defaults for MaxDepth,
// MaxStates and MaxSteps and leaves the rest unbounded.
type Budget = explore.Budget

// ExploreStats is the search's ledger, the counters ExploreReport and
// every ExploreProgress snapshot carry: states, pruned, sleep_skips,
// replays, steps_replayed, terminals, distinct_terminals, truncated and
// deepest.
type ExploreStats = explore.Stats

// ExploreProgress is one live snapshot of a running exploration,
// delivered to ExploreOptions.Progress: the placement explored (Homes),
// the ledger so far, the stack's size (Frontier) and the elapsed wall
// clock.
type ExploreProgress = explore.Progress

// ExploreOptions tunes a schedule-space exploration: a Budget plus
// search knobs.
type ExploreOptions struct {
	// Budget bounds the search.
	Budget Budget
	// Workers is how many placements a sweep over placements
	// (experiments.ExploreAllStream) explores at once; values <= 1
	// sweep them one at a time. Explore ignores it: one search runs on
	// the calling goroutine. Every value yields the same rows, reports
	// and error.
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
	// search (at the first expansion 200ms or more after the previous
	// snapshot, plus a final one whose ledger is the report's). It is
	// called on the searching goroutine, between expansions, so it
	// should be cheap. A sweep exploring several placements at once
	// (Workers > 1) calls it from each of their searches, concurrently.
	// No calls happen after Explore returns.
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

	// ExploreStats is the search's ledger: what the verdict cost
	// (Truncated counts the branches the Budget cut).
	ExploreStats
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
// The search runs on the calling goroutine and visits schedules in one
// fixed order, so its report is deterministic, visit-order counters
// included, and its counterexample is the lexicographically least one
// explored. Config.Topology selects the substrate (default: the
// unidirectional ring of Config.N nodes); the partial-order reduction
// commutes actions per directed-edge FIFO.
//
// Config.Faults makes the substrate dynamic: the search enumerates
// every agent interleaving around the fixed failure/repair timeline,
// and a terminal state with agents frozen on a never-repaired link is a
// counterexample. Step-indexed mutations localize, rather than disable,
// the reduction: sleep sets stratify around the depths where a fault
// fires, so fault searches cover the same space with more replays.
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
		nb, err := opts.Adversary.Normalized()
		if err != nil {
			return ExploreReport{}, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		adv = &nb
	}
	// search runs one exploration under the given adversary budget; the
	// worst-outage probe reruns it with smaller ones.
	search := func(ab *AdversaryBudget, progress func(ExploreProgress)) (explore.Report, error) {
		return explore.Explore(ctx, explore.Setup{
			N:         n,
			Topology:  st,
			Homes:     cfg.Homes,
			Faults:    cfg.Faults,
			Adversary: ab,
			Programs: func() ([]sim.Program, error) {
				return buildPrograms(alg, cfg, n, k)
			},
		}, explore.Options{Budget: opts.Budget, Progress: progress})
	}
	rep, err := search(adv, opts.Progress)
	if err != nil && ctx.Err() == nil {
		return ExploreReport{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	out := ExploreReport{
		Algorithm:    alg.String(),
		Topology:     topologyName(cfg),
		N:            cfg.N,
		K:            k,
		Faults:       FormatFaults(cfg.Faults),
		ExploreStats: rep.Stats,
		Complete:     rep.Complete,
	}
	if cex := rep.Counterexample; cex != nil {
		out.Counterexample = &ExploreCounterexample{
			Prefix:    cex.Prefix,
			Reason:    cex.Reason,
			Positions: cex.Positions,
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
func worstOutageProbe(adv AdversaryBudget, breaks bool, search func(*AdversaryBudget, func(ExploreProgress)) (explore.Report, error)) *WorstOutage {
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
		var ab *AdversaryBudget
		if kp > 0 {
			ab = &AdversaryBudget{MaxConcurrent: kp, RepairWithin: adv.RepairWithin, MaxTotal: adv.MaxTotal}
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
