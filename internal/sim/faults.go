package sim

import (
	"fmt"
	"slices"
)

// FaultEvent schedules one link-state mutation: at the first decision
// point after Step atomic actions have executed, the directed edge
// leaving From through Port switches to the given state. Mutations
// happen strictly *between* atomic actions, never inside one, so every
// action still executes against a fixed edge set.
//
// Setting an edge to its current state is a no-op: it changes nothing,
// bumps no epoch, and records no trace event. An all-links-up schedule
// therefore reproduces the static engine's behaviour byte-identically
// (TestDynamicEngineMatchesGoldenTraces pins this).
type FaultEvent struct {
	// Step is the atomic-action count at which the mutation fires: the
	// event applies once the engine has executed at least Step actions.
	Step int `json:"step"`
	// From and Port name the directed edge (the out-port at its tail),
	// exactly as an ActionMove through Port at From would select it. On
	// the unidirectional ring every node has the single out-port 0.
	From int `json:"from"`
	Port int `json:"port"`
	// Up is the edge's new state: false fails the link, true repairs it.
	Up bool `json:"up"`
}

// FaultSchedule is a deterministic sequence of link mutations, ordered
// by Step (events sharing a step apply in slice order). It is the
// engine-level form of a dynamic topology: the node set and port
// numbering are fixed by the Topology, while the set of *usable* edges
// changes over time.
//
// Semantics of a failed edge:
//
//   - Its FIFO queue freezes: the head cannot arrive (the arrival
//     choice is not enabled), and nothing in the queue is lost.
//   - Moves onto it still enqueue. A send onto a failed link parks the
//     agent in the link's buffer — frozen, not dropped — preserving the
//     model's indelible-token discipline for agents in transit.
//   - Repairing the edge re-enables its head's arrival with the queue
//     contents and order intact.
//
// A configuration with no enabled action but pending fault events is
// not quiescent: time passes and the next scheduled mutation fires on
// its own (link repair needs no agent's help), which is what makes
// "eventually repaired" schedules meaningful even when every agent is
// frozen. Only when no action is enabled and no event is pending does
// the run quiesce; frozen queues then surface as Result.QueuesEmpty ==
// false, which the deployment definitions (and the explorer's default
// property) reject.
type FaultSchedule []FaultEvent

// validate checks every event against the flattened edge table.
func (fs FaultSchedule) validate(et *edgeTable) error {
	for i, ev := range fs {
		if ev.Step < 0 {
			return fmt.Errorf("%w: fault event %d has negative step %d", ErrBadSetup, i, ev.Step)
		}
		if ev.From < 0 || ev.From >= et.n {
			return fmt.Errorf("%w: fault event %d from node %d out of range", ErrBadSetup, i, ev.From)
		}
		if deg := et.outDegree(ev.From); ev.Port < 0 || ev.Port >= deg {
			return fmt.Errorf("%w: fault event %d port %d at node with out-degree %d", ErrBadSetup, i, ev.Port, deg)
		}
	}
	return nil
}

// sorted returns the schedule ordered by Step, preserving the relative
// order of events that share a step. The input is not modified.
func (fs FaultSchedule) sorted() FaultSchedule {
	if slices.IsSortedFunc(fs, func(a, b FaultEvent) int { return a.Step - b.Step }) {
		return fs
	}
	out := slices.Clone(fs)
	slices.SortStableFunc(out, func(a, b FaultEvent) int { return a.Step - b.Step })
	return out
}

// SetEdgeState mutates the state of the directed edge leaving from
// through port: up == false fails the link, up == true repairs it. It
// may be called between atomic actions (from an Observer, or by the
// engine itself when applying Options.Faults); calling it mid-action is
// not supported. Setting an edge to its current state is a no-op that
// leaves the epoch and trace untouched, so idempotent schedules cost
// nothing.
//
// A failed edge freezes its FIFO queue (see FaultSchedule); the epoch
// counter advances by one per effective mutation.
func (e *Engine) SetEdgeState(from, port int, up bool) error {
	if from < 0 || from >= e.et.n {
		return fmt.Errorf("%w: edge-state node %d out of range", ErrBadSetup, from)
	}
	if deg := e.et.outDegree(from); port < 0 || port >= deg {
		return fmt.Errorf("%w: edge-state port %d at node with out-degree %d", ErrBadSetup, port, deg)
	}
	r := int(e.et.rank[int(e.et.start[from])+port])
	if e.edgeDown(r) == !up {
		return nil // already in the requested state
	}
	if up {
		e.down.remove(r)
		e.downCount--
		// Repairing re-enables the frozen head's arrival.
		if h := e.qhead[r]; h != -1 {
			e.ready.add(int(h))
			if e.listed {
				e.listArrival(r)
			}
		}
	} else {
		e.down.add(r)
		e.downCount++
		// Failing freezes the queue: the head leaves the enabled set.
		if h := e.qhead[r]; h != -1 {
			e.ready.remove(int(h))
			if e.listed {
				e.listRemove(int(h))
			}
		}
	}
	e.epoch++
	if e.track {
		e.key ^= downTerm(r)
	}
	if e.sink != nil {
		kind := "link-down"
		if up {
			kind = "link-up"
		}
		e.sink.Record(Event{Step: e.steps, Agent: -1, Node: from, Kind: kind, Detail: fmt.Sprintf("port %d", port)})
	}
	return nil
}

// EdgeUp reports whether the directed edge leaving from through port is
// currently up.
func (e *Engine) EdgeUp(from, port int) (bool, error) {
	if from < 0 || from >= e.et.n {
		return false, fmt.Errorf("%w: edge-state node %d out of range", ErrBadSetup, from)
	}
	if deg := e.et.outDegree(from); port < 0 || port >= deg {
		return false, fmt.Errorf("%w: edge-state port %d at node with out-degree %d", ErrBadSetup, port, deg)
	}
	return !e.edgeDown(int(e.et.rank[int(e.et.start[from])+port])), nil
}

// Epoch returns the number of effective link mutations applied so far.
// The edge *table* (nodes, ports, ranks) is immutable; only the
// per-edge up/down mask changes, and each change stamps a new epoch.
// Zero means the engine has run on the static topology throughout.
func (e *Engine) Epoch() int { return e.epoch }

// edgeDown reports whether the rank-r edge is failed. Testing downCount
// first keeps the all-up fast path free of any per-edge state: engines
// without mutations never read the mask.
func (e *Engine) edgeDown(r int) bool { return e.downCount > 0 && e.down.has(r) }

// applyDueFaults applies every scheduled event whose step has been
// reached. Called before each decision point, so mutations land between
// atomic actions.
func (e *Engine) applyDueFaults() {
	for e.faultIdx < len(e.faults) && e.faults[e.faultIdx].Step <= e.steps {
		ev := e.faults[e.faultIdx]
		e.faultIdx++
		// Validated at construction; cannot fail.
		_ = e.SetEdgeState(ev.From, ev.Port, ev.Up)
	}
}

// applyNextFaultBatch force-fires the next pending step's events even
// though the engine has not executed that many actions: when no atomic
// action is enabled, time still passes, and scheduled repairs happen on
// their own.
func (e *Engine) applyNextFaultBatch() {
	if e.faultIdx >= len(e.faults) {
		return
	}
	s := e.faults[e.faultIdx].Step
	for e.faultIdx < len(e.faults) && e.faults[e.faultIdx].Step == s {
		ev := e.faults[e.faultIdx]
		e.faultIdx++
		_ = e.SetEdgeState(ev.From, ev.Port, ev.Up)
	}
}
