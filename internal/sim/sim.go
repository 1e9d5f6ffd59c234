package sim

import (
	"agentring/internal/memmeter"
)

// Message is an arbitrary payload broadcast between co-located agents.
// The model allows messages of any size.
type Message any

// Program is the algorithm one agent executes, as a factory of its
// resumable state machine. NewEngine calls Frame once per agent at
// construction and steps the returned Frame once per activation; the
// concurrent substrate (internal/netsim) calls it at every step and
// loads the agent's saved words into the fresh frame. A Program value
// is immutable configuration: everything an agent changes lives in its
// Frame.
type Program interface {
	Frame() Frame
}

// API is the world as one anonymous agent sees it during one atomic
// action. A Frame calls it only from within Step; how the action ends
// (move, suspend, halt) is the Action that Step returns.
type API interface {
	// OutDegree returns the number of outgoing ports at the current
	// node. It is 1 everywhere on a unidirectional ring.
	OutDegree() int

	// ArrivalPort returns the port at the *current* node that leads
	// back along the link the agent most recently traversed, or -1 when
	// there is no such information: the agent has not moved yet (the
	// initial activation at its home node), or the topology has no
	// reverse link (e.g. a unidirectional ring). On symmetric
	// topologies this is what port-local traversal rules (Euler tours
	// on trees, right-hand walks) are built from.
	ArrivalPort() int

	// ReleaseToken drops the indelible token at the current node.
	// The model gives each agent one token; releasing more than once is
	// the program's responsibility to avoid (the substrate allows stacked
	// tokens, as does the formal model's per-node counter).
	ReleaseToken()

	// TokensHere returns the token count at the current node.
	TokensHere() int

	// AgentsHere returns the number of other agents currently staying at
	// this node (suspended, waiting, or halted). Agents in transit on
	// links are invisible, as are agents mid-activation (there are none:
	// only one agent acts at a time).
	AgentsHere() int

	// Broadcast sends msg to every other agent staying at the current
	// node. Messages reach a recipient's mailbox immediately and are
	// delivered at its next activation. Halted agents ignore messages.
	Broadcast(msg Message)

	// Messages drains and returns the messages delivered at the start of
	// this atomic action: empty on an arrival, and on a wake everything
	// broadcast to the agent since it suspended. Unread messages are
	// consumed (dropped) when the action ends.
	Messages() []Message

	// Meter is the agent's memory meter; algorithms account their live
	// state through it so memory claims can be measured.
	Meter() *memmeter.Meter
}

// Status describes where an agent is in its lifecycle.
type Status int

// Agent lifecycle states.
const (
	// StatusInTransit means the agent is inside a link's FIFO queue
	// (including the initial home-node incoming buffer).
	StatusInTransit Status = iota + 1
	// StatusWaiting means the agent stays at a node, suspended by
	// ActionAwait until a message arrives — the paper's suspended state.
	StatusWaiting
	// StatusHalted means the agent's frame returned ActionDone — the
	// paper's halt state.
	StatusHalted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusInTransit:
		return "in-transit"
	case StatusWaiting:
		return "waiting"
	case StatusHalted:
		return "halted"
	default:
		return "unknown"
	}
}
