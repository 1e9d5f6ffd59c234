package sim

import "fmt"

// AdversaryBudget turns the edge set into an online decision surface:
// instead of replaying a fixed FaultSchedule, an engine built with
// Options.Adversary offers link failures and repairs as *choices* at
// every decision point, next to the agent actions. A schedule is then
// an interleaving of agent moves and adversary moves, and a
// schedule-space search over it quantifies over every failure pattern
// the budget admits — the "how little link budget can you lose"
// question, rather than "does this one timeline break us".
//
// The budget shapes the adversary's power:
//
//   - MaxConcurrent bounds how many links may be down at once.
//   - MaxTotal bounds the total number of fail moves over the whole
//     schedule (0 selects MaxConcurrent). A finite total is what keeps
//     the augmented schedule space finite: the adversary state a
//     configuration carries (fail count, per-link outage ages) then
//     ranges over a bounded set.
//   - RepairWithin is the fairness obligation that makes the adversary
//     "eventually repairing" by construction: once a link has been down
//     for RepairWithin atomic actions (agent and adversary moves alike
//     count), the only enabled choice is repairing the lowest-rank
//     overdue link. A link therefore stays down for at most
//     RepairWithin + MaxConcurrent - 1 actions (other overdue links may
//     queue ahead of it, one forced repair per action). RepairWithin
//     must be >= 1; permanent failures are deliberately outside the
//     adversary's power — they remain the domain of fixed
//     FaultSchedules, where a never-repaired link surfaces as a
//     frozen-in-transit terminal.
//
// Adversary moves are atomic actions: each fail or repair advances the
// step counter like an agent action, so a decision prefix's length
// still equals Engine.Steps() and replay tools need no special casing.
// Failed links keep the frozen-FIFO semantics of FaultSchedule; because
// repairs are always enabled while any link is down, a quiescent
// configuration under an adversary necessarily has every link up and
// every queue empty.
//
// Options.Adversary and Options.Faults are mutually exclusive.
type AdversaryBudget struct {
	// MaxConcurrent is the maximum number of simultaneously failed
	// links. Must be >= 1 (a zero-budget adversary is just the static
	// engine; pass nil instead).
	MaxConcurrent int `json:"max_concurrent"`
	// RepairWithin forces a failed link's repair once it has been down
	// for this many atomic actions. Must be >= 1.
	RepairWithin int `json:"repair_within"`
	// MaxTotal bounds the number of fail moves across the whole
	// schedule; zero selects MaxConcurrent.
	MaxTotal int `json:"max_total"`
}

// Normalized validates the budget and fills defaults. It is the one
// check of a budget: the engine wraps its error in ErrBadSetup, the
// public API in its configuration error.
func (b AdversaryBudget) Normalized() (AdversaryBudget, error) {
	if b.MaxConcurrent < 1 {
		return b, fmt.Errorf("adversary max concurrent %d, want >= 1", b.MaxConcurrent)
	}
	if b.RepairWithin < 1 {
		return b, fmt.Errorf("adversary repair-within %d, want >= 1 (permanent failures are Config.Faults territory)", b.RepairWithin)
	}
	if b.MaxTotal < 0 {
		return b, fmt.Errorf("adversary max total %d, want >= 0", b.MaxTotal)
	}
	if b.MaxTotal == 0 {
		b.MaxTotal = b.MaxConcurrent
	}
	return b, nil
}

// Adversary returns the engine's normalized adversary budget, or nil
// when the engine runs without one.
func (e *Engine) Adversary() *AdversaryBudget { return e.adv }

// initAdversary wires the adversary state into a freshly constructed
// engine, whose layout already holds the per-rank outage stamps: the
// normalized budget, the stamps' initial -1, and the rank -> (source
// node, out-port) tables adversary choices are built from.
func (e *Engine) initAdversary(b AdversaryBudget) error {
	nb, err := b.Normalized()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSetup, err)
	}
	if len(e.faults) > 0 {
		return fmt.Errorf("%w: Options.Adversary and Options.Faults are mutually exclusive", ErrBadSetup)
	}
	m := e.et.edges()
	e.adv = &nb
	e.advSrc = make([]int32, m)
	e.advPort = make([]int32, m)
	for i := range e.advDownAt {
		e.advDownAt[i] = -1
	}
	for v := 0; v < e.et.n; v++ {
		for p := 0; p < e.et.outDegree(v); p++ {
			r := e.et.rank[int(e.et.start[v])+p]
			e.advSrc[r] = int32(v)
			e.advPort[r] = int32(p)
		}
	}
	return nil
}

// adversaryChoices returns the agent-action choice list extended with
// the adversary's enabled moves, in the deterministic order replay
// tools depend on: agent actions first (their existing order), then
// repairs by edge rank ascending, then fails by edge rank ascending.
// The moves are written past the list's length into its backing array,
// so they never enter the list the engine patches; a forced repair is
// returned alone, from the same spare capacity.
//
// Three rules shape the offer:
//
//   - Forced repair: when any link has been down for RepairWithin
//     actions, the decision point offers exactly one choice — repairing
//     the lowest-rank overdue link. This is what turns RepairWithin
//     into a hard per-outage bound instead of a fairness hint, and it
//     costs no search width: the forced node has branching factor 1.
//   - Repairs are enabled whenever any link is down, so "leave it down
//     forever" is not a branch the schedule tree contains: every
//     terminal (quiescent) configuration has all links up.
//   - Fails are enabled only under budget (fewer than MaxConcurrent
//     down, fewer than MaxTotal fails so far) and only when at least
//     one agent action is enabled. The second condition is a sound
//     prune, not a restriction: when no agent action is enabled, every
//     non-empty queue already sits on a down link, so a fail could only
//     hit an *empty* edge — and failing an empty edge before the next
//     agent action reaches exactly the states that failing it at the
//     next decision point reaches, with a strictly earlier repair
//     deadline. Deferring is never worse for the adversary.
func (e *Engine) adversaryChoices() []Choice {
	out := e.choices
	nAgents := len(out)
	if e.downCount > 0 {
		for r := e.down.next(0); r != -1; r = e.down.next(r + 1) {
			if e.steps-int(e.advDownAt[r]) >= e.adv.RepairWithin {
				return append(out[nAgents:], Choice{Kind: ChoiceRepair, Agent: -1, Node: int(e.advSrc[r]), Edge: r})
			}
		}
		for r := e.down.next(0); r != -1; r = e.down.next(r + 1) {
			out = append(out, Choice{Kind: ChoiceRepair, Agent: -1, Node: int(e.advSrc[r]), Edge: r})
		}
	}
	if nAgents > 0 && e.advFails < e.adv.MaxTotal && e.downCount < e.adv.MaxConcurrent {
		for r := 0; r < e.et.edges(); r++ {
			if !e.edgeDown(r) {
				out = append(out, Choice{Kind: ChoiceFail, Agent: -1, Node: int(e.advSrc[r]), Edge: r})
			}
		}
	}
	e.choices = out[:nAgents] // keeps the backing array the moves grew into
	return out
}

// activateAdversary executes one adversary move: the link-state
// mutation plus the budget bookkeeping. Like every activation it is
// followed by a step increment, so the outage stamp records the step
// count *after* the fail — a link failed by decision d has age 0 at
// decision point d+1 and becomes overdue once RepairWithin further
// actions have executed.
func (e *Engine) activateAdversary(c Choice) error {
	if e.adv == nil {
		return fmt.Errorf("%w: adversary choice on an engine without an adversary", ErrBadSetup)
	}
	r := c.Edge
	if r < 0 || r >= e.et.edges() {
		return fmt.Errorf("%w: adversary choice edge rank %d out of range", ErrBadSetup, r)
	}
	up := c.Kind == ChoiceRepair
	if e.edgeDown(r) != up {
		return fmt.Errorf("%w: adversary choice desynchronized (edge rank %d already %v)", ErrBadSetup, r, map[bool]string{true: "up", false: "down"}[!up])
	}
	if up {
		e.advDownAt[r] = -1
	} else {
		if e.advFails >= e.adv.MaxTotal {
			return fmt.Errorf("%w: adversary fail exceeds MaxTotal %d", ErrBadSetup, e.adv.MaxTotal)
		}
		if e.downCount >= e.adv.MaxConcurrent {
			return fmt.Errorf("%w: adversary fail exceeds MaxConcurrent %d", ErrBadSetup, e.adv.MaxConcurrent)
		}
		e.advFails++
		e.advDownAt[r] = int32(e.steps + 1)
	}
	return e.SetEdgeState(int(e.advSrc[r]), int(e.advPort[r]), up)
}
