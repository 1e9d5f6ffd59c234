package sim

import (
	"fmt"
	"iter"
)

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

// Frame is the one agent form the engine executes: a small resumable
// state machine the engine steps once per activation. Step performs the
// local computation of one atomic action — reading observations and
// broadcasting through api exactly as a Program would — and returns how
// the action ends. The engine vets every returned Action in one place:
// it checks a move's out-port, folds the opMove/opAwait observation
// opcodes, turns a panic into a program error and rejects an unknown
// kind. A plain Program (one that does not implement Framer) is hosted
// behind Frame too, by a coroutine adapter whose Step resumes Run until
// its next blocking call.
//
// Equivalence contract (what keeps a Framer's frame and its Program's
// Run byte-identical in traces and state hashes):
//
//   - Step must make the same API call sequence the Program's Run makes
//     between two consecutive blocking calls. Where the action's own
//     opcode lands needs no care: the engine folds opMove/opAwait for
//     every returned Action, the adapter's included, so both forms fold
//     it after the action's last observation by construction.
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
//
// A Framer's own frame exists for speed: its steady-state loop is a
// plain method call into per-agent state allocated once at engine
// construction, instead of an iter.Pull goroutine switch per step.
// Algorithms whose control flow is inconvenient to invert (deep
// message-driven loops) simply don't implement Framer and run through
// the adapter, though only engines whose every agent is a
// checkpointable frame can be explored (see FrameSaver).
type Frame interface {
	Step(api API) Action
}

// Framer is optionally implemented by Programs that can execute as a
// Frame of their own. The engine calls Frame once per agent at
// construction and steps the returned state machine; Run is then never
// called (it remains the reference semantics: the cross-check tests run
// a program wrapped in ProgramFunc(p.Run), which hides Frame, next to
// the frame and compare). The concurrent substrate (internal/netsim)
// hosts the same frames on its per-node goroutines, rebuilding each
// from its FrameSaver words at every step.
type Framer interface {
	Program
	Frame() Frame
}

// coroFrame hosts a plain Program behind Frame. Its first Step starts
// Run on an iter.Pull coroutine; every Step resumes Run until a
// blocking API call suspends it with the Action a frame would return
// (apiState.suspend), or until Run returns. A panic in Run comes back
// out of next with its value, where the engine recovers it as it
// recovers a frame's.
type coroFrame struct {
	run   func(API) error
	next  func() (Action, bool)
	stop  func()
	yield func(Action) bool
}

// Step implements Frame.
func (c *coroFrame) Step(api API) Action {
	if c.next == nil {
		c.next, c.stop = iter.Pull(func(yield func(Action) bool) {
			c.yield = yield
			defer func() {
				// Engine shutdown unwinds a parked Run through errStopped:
				// a clean retirement, not a program panic.
				if r := recover(); r != nil && r != errStopped {
					panic(r)
				}
			}()
			yield(Action{Kind: ActionDone, Err: c.run(api)})
		})
	}
	act, ok := c.next()
	if !ok {
		return Action{Kind: ActionDone, Err: fmt.Errorf("%w: coroutine exhausted", ErrBadSetup)}
	}
	return act
}
