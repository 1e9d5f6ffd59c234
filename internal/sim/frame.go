package sim

// ActionKind is how a Frame ends one atomic action.
type ActionKind int

// Frame actions: the three ways an atomic action ends (step 4 of the
// model's atomic action, see the package doc).
const (
	// ActionMove moves the agent along Port, an out-port of its current
	// node (0 <= Port < OutDegree()). Port 0 is the forward direction of
	// a ring and by convention the primary direction of every topology,
	// so port-0-only frames (the paper's unidirectional algorithms) run
	// unchanged on any topology. An out-of-range port is a program error.
	ActionMove ActionKind = iota + 1
	// ActionAwait suspends the agent at its node until a message
	// arrives; the Step of its wake reads the delivered messages through
	// Messages().
	ActionAwait
	// ActionDone halts the agent; Err, if non-nil, aborts the run.
	ActionDone
)

// Action is the outcome of one Frame step: how the atomic action ends.
type Action struct {
	Kind ActionKind
	Port int   // out-port for ActionMove
	Err  error // program error for ActionDone
}

// Frame is the one agent form the engine executes: a small resumable
// state machine the engine steps once per activation. Step performs the
// local computation of one atomic action — reading observations and
// broadcasting through api — and returns how the action ends. The
// engine vets every returned Action in one place: it checks a move's
// out-port, folds the opMove/opAwait observation opcodes, turns a panic
// into a program error and rejects an unknown kind.
//
// The Step of a wake (the first after an ActionAwait) should read the
// delivered messages with Messages() before any other observation;
// messages left unread when Step returns are dropped, as the model
// drops them at the end of every atomic action. An arrival's inbox is
// always empty, since only staying agents receive broadcasts.
//
// SaveState appends every word of the frame's resumable state to buf
// and returns the extended slice; LoadState reads the same words back
// from the front of buf and returns how many it consumed. The two must
// be exact inverses: after LoadState(SaveState(nil)) the frame's next
// Step must behave identically. They are how a Checkpoint captures an
// agent, and how netsim migrates one from node to node.
//
// The production algorithms keep a paper-shaped reference form in
// internal/reference, which only tests import; its package doc states
// the contract that keeps a frame byte-identical to its reference in
// traces and state hashes.
type Frame interface {
	Step(api API) Action
	// SaveState appends the frame's resumable state to buf.
	SaveState(buf []int) []int
	// LoadState restores the frame from the front of buf, returning the
	// number of words consumed.
	LoadState(buf []int) int
}
