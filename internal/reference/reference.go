package reference

import (
	"errors"
	"iter"
	"testing"

	"agentring/internal/sim"
)

// API is the world as a body sees it: sim.API plus the three blocking
// calls that end an atomic action. Each returns when the agent's next
// atomic action begins.
type API interface {
	sim.API
	// Move moves the agent along port 0: MoveVia(0).
	Move()
	// MoveVia moves the agent along the given out-port; an out-of-range
	// port is a program error.
	MoveVia(port int)
	// AwaitMessages suspends the agent until a message arrives, then
	// returns every delivered message.
	AwaitMessages() []sim.Message
}

// Func is the body of one agent, run once from its first activation at
// its home node. Returning halts the agent (Definition 1); blocking
// forever in AwaitMessages leaves it suspended (Definition 2). A
// non-nil error aborts the whole run.
type Func func(api API) error

// Program hosts run on the engine as a sim.Program. Every Frame call
// builds a fresh adapter, so one Program serves any number of agents
// and engines; each adapter's coroutine stops when t's cleanup runs.
func Program(t testing.TB, run Func) sim.Program { return program{t: t, run: run} }

type program struct {
	t   testing.TB
	run Func
}

func (p program) Frame() sim.Frame { return &agent{t: p.t, run: p.run} }

// errStopped unwinds a body parked in a blocking call when its
// coroutine is stopped.
var errStopped = errors.New("reference: coroutine stopped")

// agent is the adapter: a sim.Frame whose Step resumes the body, and
// the API the body sees, which is the engine's API for the current Step
// plus the blocking calls.
type agent struct {
	sim.API // the engine's API for the current Step
	t       testing.TB
	run     Func
	next    func() (sim.Action, bool)
	yield   func(sim.Action) bool
}

// Step implements sim.Frame.
func (a *agent) Step(api sim.API) sim.Action {
	a.API = api
	if a.next == nil {
		var stop func()
		a.next, stop = iter.Pull(a.body)
		a.t.Cleanup(stop)
	}
	act, ok := a.next()
	if !ok {
		return sim.Action{Kind: sim.ActionDone, Err: errors.New("reference: agent stepped after its body ended")}
	}
	return act
}

// body runs the Func on the coroutine and yields its halt.
func (a *agent) body(yield func(sim.Action) bool) {
	a.yield = yield
	defer func() {
		// A stop unwinds a parked body through errStopped: a clean
		// retirement, not a program panic.
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	yield(sim.Action{Kind: sim.ActionDone, Err: a.run(a)})
}

// suspend ends the current atomic action with act; it returns when the
// next Step resumes the body.
func (a *agent) suspend(act sim.Action) {
	if !a.yield(act) {
		panic(errStopped)
	}
}

// Move implements API.
func (a *agent) Move() { a.MoveVia(0) }

// MoveVia implements API. The engine checks the port.
func (a *agent) MoveVia(port int) { a.suspend(sim.Action{Kind: sim.ActionMove, Port: port}) }

// AwaitMessages implements API.
func (a *agent) AwaitMessages() []sim.Message {
	a.suspend(sim.Action{Kind: sim.ActionAwait})
	return a.Messages()
}

// SaveState and LoadState implement sim.Frame by refusing: a body's
// state is a goroutine stack.
func (a *agent) SaveState([]int) []int { panic(errNoState) }
func (a *agent) LoadState([]int) int   { panic(errNoState) }

const errNoState = "reference: a reference agent cannot save or load its state (it runs as a coroutine)"
