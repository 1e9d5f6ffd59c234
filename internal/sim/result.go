package sim

import "slices"

// AgentReport is the per-agent outcome of a run.
type AgentReport struct {
	// Home is the agent's initial node.
	Home int
	// Node is the node the agent occupies (or was last at, if it somehow
	// remained in transit) when the run ended.
	Node int
	// Moves counts the agent's link traversals.
	Moves int
	// Status is the agent's final lifecycle state.
	Status Status
	// PeakWords is the maximum number of simultaneously live memory
	// words the agent's program metered.
	PeakWords int
	// Err is the program's error, if any.
	Err error
}

// Result summarizes a completed run.
type Result struct {
	// Steps is the number of atomic actions executed.
	Steps int
	// Rounds is the ideal-time measurement when the scheduler was
	// synchronous (zero otherwise).
	Rounds int
	// TotalMoves is the sum of all agents' moves.
	TotalMoves int
	// MessagesSent counts Broadcast calls; MessagesDelivered counts
	// per-recipient deliveries.
	MessagesSent      int
	MessagesDelivered int
	// Agents holds per-agent reports, indexed like the homes/programs
	// slices given to NewEngine.
	Agents []AgentReport
	// Tokens is the final per-node token count (the T component of the
	// final configuration).
	Tokens []int
	// Epoch counts the effective link mutations (Options.Faults or
	// Engine.SetEdgeState) applied during the run; zero means the
	// topology stayed static throughout.
	Epoch int
	// Quiesced reports whether the run ended because no atomic action
	// was enabled and no fault event was pending. It is false when a
	// scheduler stopped the run early (PickStop) or the run aborted on
	// an error. A quiescent run can still hold frozen agents on failed
	// links that were never repaired — QueuesEmpty distinguishes that.
	Quiesced bool
	// QueuesEmpty reports whether all link FIFO queues were empty at the
	// end — required by both Definition 1 and Definition 2.
	QueuesEmpty bool
	// MailboxesEmpty reports whether every non-halted agent ended with an
	// empty mailbox — required by Definition 2.
	MailboxesEmpty bool
}

// Positions returns each agent's final node.
func (r Result) Positions() []int {
	out := make([]int, len(r.Agents))
	for i, a := range r.Agents {
		out[i] = a.Node
	}
	return out
}

// AllHalted reports whether every agent ended in the halt state
// (Definition 1 termination).
func (r Result) AllHalted() bool {
	for _, a := range r.Agents {
		if a.Status != StatusHalted {
			return false
		}
	}
	return true
}

// AllSuspended reports whether every agent ended in a suspended state
// (Definition 2 termination without detection).
func (r Result) AllSuspended() bool {
	for _, a := range r.Agents {
		if a.Status != StatusWaiting {
			return false
		}
	}
	return true
}

// MaxMoves returns the largest per-agent move count.
func (r Result) MaxMoves() int {
	max := 0
	for _, a := range r.Agents {
		if a.Moves > max {
			max = a.Moves
		}
	}
	return max
}

// MaxPeakWords returns the largest per-agent peak memory (words).
func (r Result) MaxPeakWords() int {
	max := 0
	for _, a := range r.Agents {
		if a.PeakWords > max {
			max = a.PeakWords
		}
	}
	return max
}

func (e *Engine) result() Result {
	k := len(e.node)
	res := Result{
		Steps:             e.steps,
		TotalMoves:        0,
		MessagesSent:      e.sent,
		MessagesDelivered: e.delivered,
		Agents:            make([]AgentReport, k),
		Tokens:            slices.Clone(e.tokens),
		QueuesEmpty:       true,
		MailboxesEmpty:    true,
	}
	if rc, ok := e.sched.(RoundCounter); ok {
		res.Rounds = rc.Rounds()
	}
	res.Epoch = e.epoch
	res.Quiesced = e.quiesced
	res.QueuesEmpty = e.occupied.count == 0
	for i := 0; i < k; i++ {
		res.Agents[i] = AgentReport{
			Home:      e.home[i],
			Node:      e.node[i],
			Moves:     int(e.moves[i]),
			Status:    e.status[i],
			PeakWords: e.meter[i].Peak(),
			Err:       e.agentErr[i],
		}
		res.TotalMoves += int(e.moves[i])
		if e.status[i] != StatusHalted && len(e.mailbox[i]) > 0 {
			res.MailboxesEmpty = false
		}
	}
	return res
}
