package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"agentring/internal/memmeter"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// Errors.
var (
	// ErrBadSetup rejects invalid run configurations.
	ErrBadSetup = errors.New("netsim: invalid setup")
	// ErrTimeout means the run did not quiesce within the deadline.
	ErrTimeout = errors.New("netsim: run timed out before quiescence")
	// ErrProgram wraps agent program failures: a panic, a halt with an
	// error, a blocking API call, or an action the ring cannot carry out.
	ErrProgram = errors.New("netsim: program error")
)

// envelope is a migrating agent: its index and its frame's saved words.
type envelope struct {
	id    int
	state []int
	moves int
}

// resident is an agent staying at a node (waiting or halted).
type resident struct {
	env     envelope
	halted  bool
	mailbox []sim.Message
}

// tracker is the quiescence credit counter.
type tracker struct {
	pending atomic.Int64
	done    chan struct{}
	once    sync.Once
	errMu   sync.Mutex
	err     error
}

func (t *tracker) add(n int64) { t.pending.Add(n) }

func (t *tracker) finish(n int64) {
	if t.pending.Add(-n) == 0 {
		t.once.Do(func() { close(t.done) })
	}
}

func (t *tracker) fail(err error) {
	t.errMu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.errMu.Unlock()
	t.once.Do(func() { close(t.done) })
}

func (t *tracker) error() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// node is one ring node's goroutine state.
type node struct {
	idx       int
	tokens    int
	residents map[int]*resident
	incoming  chan envelope
	next      chan<- envelope
	framers   []sim.Framer
	trk       *tracker
	stop      <-chan struct{}
	meter     memmeter.Meter // throwaway: netsim does not report memory
}

// Run places one agent per program at the given distinct homes on an
// n-node unidirectional ring and executes until quiescence, or until
// timeout elapses (a non-positive timeout expires at once).
//
// Every program must be a sim.Framer whose frames are sim.FrameSavers;
// Run rejects any other with ErrBadSetup. An agent travels as its
// frame's saved words: the node it reaches rebuilds a fresh frame from
// them, runs one Step and saves the words again.
//
// Node goroutines call Frame on the same program values concurrently,
// so programs must be immutable, or synchronize any hooks they call.
//
// The Result carries each agent's Home, Node, Moves and Status, the
// final Tokens and TotalMoves, and the quiescence flags; netsim counts
// no steps, messages or memory.
func Run(n int, homes []int, programs []sim.Program, timeout time.Duration) (sim.Result, error) {
	k := len(homes)
	if n < 1 || k < 1 || k > n {
		return sim.Result{}, fmt.Errorf("%w: n=%d k=%d", ErrBadSetup, n, k)
	}
	if len(programs) != k {
		return sim.Result{}, fmt.Errorf("%w: %d programs for %d agents", ErrBadSetup, len(programs), k)
	}
	seen := make(map[int]bool, k)
	for _, h := range homes {
		if h < 0 || h >= n {
			return sim.Result{}, fmt.Errorf("%w: home %d out of range", ErrBadSetup, h)
		}
		if seen[h] {
			return sim.Result{}, fmt.Errorf("%w: duplicate home %d", ErrBadSetup, h)
		}
		seen[h] = true
	}
	framers := make([]sim.Framer, k)
	initial := make([]envelope, k)
	for id, p := range programs {
		fr, ok := p.(sim.Framer)
		if !ok {
			return sim.Result{}, fmt.Errorf("%w: program %d is not a frame", ErrBadSetup, id)
		}
		f, ok := fr.Frame().(sim.FrameSaver)
		if !ok {
			return sim.Result{}, fmt.Errorf("%w: program %d's frame cannot save its state", ErrBadSetup, id)
		}
		framers[id] = fr
		initial[id] = envelope{id: id, state: f.SaveState(nil)}
	}

	trk := &tracker{done: make(chan struct{})}
	stop := make(chan struct{})
	// Links: channel i delivers into node i. Capacity k bounds the
	// agents that can ever be in flight on one link.
	links := make([]chan envelope, n)
	for i := range links {
		links[i] = make(chan envelope, k+1)
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = &node{
			idx:       i,
			residents: make(map[int]*resident),
			incoming:  links[i],
			next:      links[(i+1)%n],
			framers:   framers,
			trk:       trk,
			stop:      stop,
		}
	}
	// Initial configuration: each agent sits in its home's incoming
	// buffer, guaranteeing it acts there before any visitor.
	for id, h := range homes {
		trk.add(1)
		links[h] <- initial[id]
	}

	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd.loop()
		}()
	}

	var runErr error
	select {
	case <-trk.done:
		runErr = trk.error()
	case <-time.After(timeout):
		runErr = fmt.Errorf("%w (after %v)", ErrTimeout, timeout)
	}
	close(stop)
	wg.Wait()

	quiesced := runErr == nil
	res := sim.Result{
		Agents:         make([]sim.AgentReport, k),
		Tokens:         make([]int, n),
		Quiesced:       quiesced,
		QueuesEmpty:    quiesced, // the credit count reached zero: no envelope in flight
		MailboxesEmpty: true,
	}
	for id, h := range homes {
		res.Agents[id] = sim.AgentReport{Home: ring.NodeID(h), Status: sim.StatusInTransit}
	}
	for _, nd := range nodes {
		res.Tokens[nd.idx] = nd.tokens
		for id, r := range nd.residents {
			status := sim.StatusWaiting
			if r.halted {
				status = sim.StatusHalted
			} else if len(r.mailbox) > 0 {
				res.MailboxesEmpty = false
			}
			res.Agents[id] = sim.AgentReport{Home: ring.NodeID(homes[id]), Node: ring.NodeID(nd.idx), Moves: r.env.moves, Status: status}
			res.TotalMoves += r.env.moves
		}
	}
	if runErr == nil {
		for id, a := range res.Agents {
			if a.Status == sim.StatusInTransit {
				return res, fmt.Errorf("netsim: agent %d unaccounted for at quiescence", id)
			}
		}
	}
	return res, runErr
}

// loop is the node goroutine: process arrivals from the incoming link,
// stepping agents atomically and propagating work.
func (nd *node) loop() {
	for {
		select {
		case <-nd.stop:
			return
		case env := <-nd.incoming:
			nd.runStep(env, nil)
			nd.trk.finish(1)
		}
	}
}

// runStep executes one atomic action for the agent, with the given
// delivered inbox, then steps the residents its broadcasts woke.
func (nd *node) runStep(env envelope, inbox []sim.Message) {
	api := &nodeAPI{nd: nd, inbox: inbox}
	act, err := nd.step(&env, api)
	if err != nil {
		nd.trk.fail(fmt.Errorf("%w: agent %d at node %d: %v", ErrProgram, env.id, nd.idx, err))
		return
	}
	switch act.Kind {
	case sim.ActionMove:
		env.moves++
		nd.trk.add(1)
		// The send can block only if the link buffer (capacity k+1) is
		// full, which a correct run never reaches; selecting on stop
		// keeps shutdown deadlock-free regardless.
		select {
		case nd.next <- env:
		case <-nd.stop:
			nd.trk.finish(1)
			return
		}
	case sim.ActionAwait:
		nd.residents[env.id] = &resident{env: env}
	case sim.ActionDone:
		nd.residents[env.id] = &resident{env: env, halted: true}
	}
	// Wake cascade: residents with fresh mail are re-stepped on this
	// goroutine, in whatever order the broadcasts queued them (the
	// model allows any).
	for _, r := range api.woken {
		if len(r.mailbox) == 0 {
			continue // a nested cascade already stepped it
		}
		delete(nd.residents, r.env.id)
		mail := r.mailbox
		r.mailbox = nil
		nd.runStep(r.env, mail)
	}
}

// step rebuilds the agent's frame from its saved words, runs one Step
// and saves the words back into the envelope. Failures mirror the
// engine's frame dispatch: a panic, a halt with an error, an unknown
// action, or a move through a port the ring lacks.
func (nd *node) step(env *envelope, api *nodeAPI) (act sim.Action, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("program panic: %v", r)
		}
	}()
	f := nd.framers[env.id].Frame().(sim.FrameSaver)
	f.LoadState(env.state)
	act = f.Step(api)
	env.state = f.SaveState(env.state[:0])
	switch act.Kind {
	case sim.ActionMove:
		if act.Port != 0 {
			return act, fmt.Errorf("move via port %d at node with out-degree 1", act.Port)
		}
	case sim.ActionAwait:
	case sim.ActionDone:
		return act, act.Err
	default:
		return act, fmt.Errorf("frame returned unknown action kind %d", act.Kind)
	}
	return act, nil
}

// nodeAPI is the sim.API an agent sees during one step at a node, with
// the engine's unidirectional-ring semantics. The acting agent is never
// among the node's residents while it steps.
type nodeAPI struct {
	nd    *node
	inbox []sim.Message
	woken []*resident
}

var _ sim.API = (*nodeAPI)(nil)

func (a *nodeAPI) OutDegree() int   { return 1 }
func (a *nodeAPI) ArrivalPort() int { return -1 }
func (a *nodeAPI) ReleaseToken()    { a.nd.tokens++ }
func (a *nodeAPI) TokensHere() int  { return a.nd.tokens }
func (a *nodeAPI) AgentsHere() int  { return len(a.nd.residents) }

// Broadcast delivers msg to every waiting resident and queues each
// newly woken one for the step's wake cascade. Halted agents ignore
// messages.
func (a *nodeAPI) Broadcast(msg sim.Message) {
	for _, r := range a.nd.residents {
		if r.halted {
			continue
		}
		if len(r.mailbox) == 0 {
			a.woken = append(a.woken, r)
		}
		r.mailbox = append(r.mailbox, msg)
	}
}

func (a *nodeAPI) Messages() []sim.Message {
	msgs := a.inbox
	a.inbox = nil
	return msgs
}

func (a *nodeAPI) Meter() *memmeter.Meter { return &a.nd.meter }

// Move, MoveVia and AwaitMessages would suspend a coroutine that a
// frame does not have; the step's recover turns the panic into a
// program error, as in the engine.
func (a *nodeAPI) Move()                        { a.blocking() }
func (a *nodeAPI) MoveVia(int)                  { a.blocking() }
func (a *nodeAPI) AwaitMessages() []sim.Message { a.blocking(); return nil }

func (a *nodeAPI) blocking() { panic("frame agent called a blocking API method") }
