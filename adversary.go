package agentring

import (
	"fmt"
	"strconv"
	"strings"

	"agentring/internal/sim"
)

// AdversaryBudget configures an online fault adversary for Explore:
// instead of replaying a fixed fault timeline (Config.Faults), the
// schedule-space search treats link failures and repairs as choices of
// the schedule itself, quantifying over every failure pattern the
// budget admits. A complete, counterexample-free exploration is then a
// proof that the algorithm deploys uniformly no matter *when and where*
// the network drops links — not just along one timeline.
//
// The budget bounds the adversary's power:
//
//   - MaxConcurrent links may be down simultaneously (>= 1);
//   - RepairWithin forces a failed link's repair once it has been down
//     for that many atomic actions — the adversary is "eventually
//     repairing" by construction, with a hard per-outage bound (>= 1;
//     permanent failures remain the domain of Config.Faults);
//   - MaxTotal bounds the fail moves over a whole schedule (0 selects
//     MaxConcurrent), which keeps the augmented schedule space finite.
//
// Adversary moves are atomic actions: each fail or repair occupies one
// decision in the schedule and advances the step counter.
// ExploreOptions.Adversary and Config.Faults are mutually exclusive.
type AdversaryBudget = sim.AdversaryBudget

// ParseAdversary parses a command-line style adversary budget:
//
//	K/D[/T]
//
// where K is MaxConcurrent, D is RepairWithin, and the optional T is
// MaxTotal (defaulting to K). "1/3" is the budget-1 eventually-repaired
// adversary: at most one link down at a time, repaired within 3 atomic
// actions, one outage per schedule.
func ParseAdversary(spec string) (AdversaryBudget, error) {
	fields := strings.Split(strings.TrimSpace(spec), "/")
	if len(fields) != 2 && len(fields) != 3 {
		return AdversaryBudget{}, fmt.Errorf("%w: adversary budget %q, want K/D[/T]", ErrConfig, spec)
	}
	var vals [3]int
	for i, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return AdversaryBudget{}, fmt.Errorf("%w: adversary budget %q: bad number %q", ErrConfig, spec, f)
		}
		vals[i] = v
	}
	b, err := AdversaryBudget{MaxConcurrent: vals[0], RepairWithin: vals[1], MaxTotal: vals[2]}.Normalized()
	if err != nil {
		return b, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return b, nil
}

// FormatAdversary renders the budget in the ParseAdversary syntax,
// always including the MaxTotal component ("1/3/1").
func FormatAdversary(b AdversaryBudget) string {
	t := b.MaxTotal
	if t == 0 {
		t = b.MaxConcurrent
	}
	return fmt.Sprintf("%d/%d/%d", b.MaxConcurrent, b.RepairWithin, t)
}

// WorstOutage reports the outcome of Explore's minimal-breaking-budget
// probe: when an adversary-mode search finds a counterexample, the
// explorer re-searches under ascending concurrent-outage budgets k' =
// 0, 1, ... (k' = 0 is the fault-free search) up to the configured
// MaxConcurrent, and reports the smallest k' at which a breaking
// schedule exists. MinConcurrent == 0 with Breaks == true means the
// algorithm is defeated by asynchrony alone — no fault is needed (the
// Theorem 5 situation for estimate-then-halt strategies).
type WorstOutage struct {
	// Breaks reports whether any schedule within the configured budget
	// defeats the property.
	Breaks bool `json:"breaks"`
	// MinConcurrent is the smallest concurrent-outage budget that
	// admits a breaking schedule, or -1 when Breaks is false (the
	// algorithm tolerates the full configured budget).
	MinConcurrent int `json:"min_concurrent"`
	// RepairWithin and MaxTotal echo the budget the probe held fixed.
	RepairWithin int `json:"repair_within"`
	MaxTotal     int `json:"max_total"`
}
