package sim

// ActionKind is how a Frame ends one atomic action.
type ActionKind int

// Frame actions, mirroring the three ways a coroutine Program yields.
const (
	// ActionMove moves the agent along Port (Move() is ActionMove with
	// Port 0).
	ActionMove ActionKind = iota + 1
	// ActionAwait suspends the agent until a message arrives.
	ActionAwait
	// ActionDone halts the agent; Err, if non-nil, aborts the run.
	ActionDone
)

// Action is the batched outcome of one Frame step: everything a
// coroutine program communicates by blocking in Move/MoveVia or
// AwaitMessages, returned as a value instead.
type Action struct {
	Kind ActionKind
	Port int   // out-port for ActionMove
	Err  error // program error for ActionDone
}

// Frame is the data-oriented form of a Program: a small resumable state
// machine the engine steps once per activation, with no coroutine
// switch. Step performs the local computation of one atomic action —
// reading observations and broadcasting through api exactly as a
// Program would — and returns how the action ends.
//
// Equivalence contract (what keeps frame and coroutine executions of
// the same algorithm byte-identical in traces and state hashes):
//
//   - Step must make the same API call sequence the Program's Run makes
//     between two consecutive blocking calls. The engine folds the
//     opMove/opAwait observation opcodes for the returned Action
//     itself, in the same position Move/MoveVia/AwaitMessages fold them
//     before yielding.
//   - Step must not call the blocking methods Move, MoveVia, or
//     AwaitMessages (they suspend a coroutine that does not exist
//     here); doing so aborts the agent with a program error.
//   - ActionAwait stands for AwaitMessages on an empty inbox: the engine
//     folds opAwait and nothing else. Return it only where the
//     Program's AwaitMessages would find the inbox empty — in an arrival
//     (only staying agents receive broadcasts, so an arrival's inbox is
//     always empty) or after this Step has already called Messages().
//     Calling Messages() just before suspending from an arrival would
//     fold an opMessages entry the coroutine never folds. Where the
//     inbox may hold messages (a wake, before Messages()),
//     AwaitMessages returns them without suspending, so the frame must
//     read and act on them as well.
//   - The Step that resumes a suspended frame must call Messages()
//     before any other observation, because AwaitMessages reads the
//     inbox as soon as its coroutine resumes. Messages left unread when
//     Step returns are dropped, exactly as at the end of a coroutine
//     action.
//   - An out-of-range ActionMove port fails the agent with the same
//     program error an out-of-range MoveVia raises.
//
// Frames exist for speed: the steady-state loop of a frame agent is a
// plain method call into per-agent state allocated once at engine
// construction, instead of an iter.Pull goroutine switch per step.
// Algorithms whose control flow is inconvenient to invert (deep
// message-driven loops) simply don't implement Framer and keep the
// coroutine path; the engine mixes both in one run, though only
// engines whose every agent is a checkpointable frame can be explored
// (see FrameSaver).
type Frame interface {
	Step(api API) Action
}

// Framer is optionally implemented by Programs that can execute as a
// Frame. The engine calls Frame once per agent at construction and
// steps the returned state machine instead of running the coroutine;
// Run is then never called (it remains the reference semantics: the
// cross-check tests run a program wrapped in ProgramFunc(p.Run), which
// hides Frame, next to the frame and compare). The concurrent substrate
// (internal/netsim) hosts the same frames on its per-node goroutines,
// rebuilding each from its FrameSaver words at every step.
type Framer interface {
	Program
	Frame() Frame
}
