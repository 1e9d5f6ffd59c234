package experiments

import (
	"fmt"

	"agentring"
)

// Named fault plans of the DynRing workload family. Each resolves to a
// concrete agentring fault schedule scaled to the substrate size n, so
// one plan name can ride an (n, k) grid.
const (
	// FaultPlanTransient fails one link early and repairs it once the
	// deployment is well underway: agents pile up frozen behind the cut
	// and must still reach exact uniformity after the repair.
	FaultPlanTransient = "transient"
	// FaultPlanChurn rotates failures around the ring: four links in
	// different quadrants fail one after another, each repaired before
	// (or, for the last, possibly after) the next fails. Every link is
	// eventually repaired.
	FaultPlanChurn = "churn"
	// FaultPlanPermanent fails one link early and never repairs it.
	// Uniform deployment becomes unreachable whenever an agent needs
	// that edge; runs quiesce with frozen agents and the explorer
	// reports the schedule as a counterexample.
	FaultPlanPermanent = "permanent"
)

// ResolveFaults turns a -faults argument into a concrete event list for
// an n-node substrate: one of the named DynRing plans above, or a raw
// agentring.ParseFaults spec ("10:3:down,40:3:up"). An empty plan means
// no faults.
func ResolveFaults(plan string, n int) ([]agentring.FaultEvent, error) {
	switch plan {
	case "":
		return nil, nil
	case FaultPlanTransient:
		if n < 2 {
			return nil, fmt.Errorf("experiments: %s plan needs n >= 2", plan)
		}
		cut := n / 2
		return []agentring.FaultEvent{
			{Step: 1, From: cut, Port: 0, Up: false},
			{Step: 4 * n, From: cut, Port: 0, Up: true},
		}, nil
	case FaultPlanChurn:
		if n < 4 {
			return nil, fmt.Errorf("experiments: %s plan needs n >= 4", plan)
		}
		var events []agentring.FaultEvent
		for i := 0; i < 4; i++ {
			cut := i * n / 4
			down := 1 + i*n
			events = append(events,
				agentring.FaultEvent{Step: down, From: cut, Port: 0, Up: false},
				agentring.FaultEvent{Step: down + n/2, From: cut, Port: 0, Up: true},
			)
		}
		return events, nil
	case FaultPlanPermanent:
		if n < 2 {
			return nil, fmt.Errorf("experiments: %s plan needs n >= 2", plan)
		}
		return []agentring.FaultEvent{{Step: 1, From: n / 2, Port: 0, Up: false}}, nil
	default:
		events, err := agentring.ParseFaults(plan)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault plan %q is neither %s|%s|%s nor a valid spec: %v",
				plan, FaultPlanTransient, FaultPlanChurn, FaultPlanPermanent, err)
		}
		return events, nil
	}
}
