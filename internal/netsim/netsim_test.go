package netsim

import (
	"errors"
	"testing"
	"time"

	"agentring/internal/ring"
	"agentring/internal/sim"
)

// testTimeout bounds every run in this package's tests.
const testTimeout = 30 * time.Second

// script is a test program: its frame calls the function with the
// number of steps the agent has taken so far. The count is the frame's
// only saved word, so it survives netsim's per-step SaveState/LoadState
// round trip.
type script func(api sim.API, count int) sim.Action

func (s script) Run(sim.API) error { return errors.New("script programs run only as frames") }
func (s script) Frame() sim.Frame  { return &scriptFrame{step: s} }

type scriptFrame struct {
	step  script
	count int
}

func (f *scriptFrame) Step(api sim.API) sim.Action {
	f.count++
	return f.step(api, f.count-1)
}

func (f *scriptFrame) SaveState(buf []int) []int { return append(buf, f.count) }

func (f *scriptFrame) LoadState(buf []int) int {
	f.count = buf[0]
	return 1
}

var (
	move  = sim.Action{Kind: sim.ActionMove}
	await = sim.Action{Kind: sim.ActionAwait}
	halt  = sim.Action{Kind: sim.ActionDone}
)

// fixed returns act at every step.
func fixed(act sim.Action) script { return func(sim.API, int) sim.Action { return act } }

// walk moves steps times, then halts.
func walk(steps int) script {
	return func(_ sim.API, count int) sim.Action {
		if count == steps {
			return halt
		}
		return move
	}
}

// sendAfter walks steps hops, then broadcasts a ping and halts.
func sendAfter(steps int) script {
	return func(api sim.API, count int) sim.Action {
		if count < steps {
			return move
		}
		api.Broadcast("ping")
		return halt
	}
}

// waitForMail waits until a message arrives, then halts.
func waitForMail(api sim.API, _ int) sim.Action {
	if len(api.Messages()) > 0 {
		return halt
	}
	return await
}

// frameOnly is a Framer whose frame cannot save its state.
type frameOnly struct{ script }

func (p frameOnly) Frame() sim.Frame { return struct{ sim.Frame }{p.script.Frame()} }

func run(t *testing.T, n int, homes []int, programs ...sim.Program) sim.Result {
	t.Helper()
	res, err := Run(n, homes, programs, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	m := walk(1)
	cases := []struct {
		name     string
		n        int
		homes    []int
		programs []sim.Program
	}{
		{"n too small", 0, []int{0}, []sim.Program{m}},
		{"no agents", 4, nil, nil},
		{"k exceeds n", 2, []int{0, 1, 0}, []sim.Program{m, m, m}},
		{"mismatch", 4, []int{0, 1}, []sim.Program{m}},
		{"dup homes", 4, []int{1, 1}, []sim.Program{m, m}},
		{"home range", 4, []int{9}, []sim.Program{m}},
		{"coroutine program", 4, []int{0}, []sim.Program{sim.ProgramFunc(func(sim.API) error { return nil })}},
		{"frame without saver", 4, []int{0}, []sim.Program{frameOnly{m}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(c.n, c.homes, c.programs, testTimeout); !errors.Is(err, ErrBadSetup) {
				t.Errorf("err = %v, want ErrBadSetup", err)
			}
		})
	}
}

func TestWalkersQuiesce(t *testing.T) {
	res := run(t, 10, []int{0, 3, 7}, walk(5), walk(0), walk(23))
	want := []int{5, 3, 0} // (0+5)%10, 3, (7+23)%10
	for i, a := range res.Agents {
		if a.Status != sim.StatusHalted {
			t.Errorf("agent %d %v, want halted", i, a.Status)
		}
		if int(a.Node) != want[i] {
			t.Errorf("agent %d at %d, want %d", i, a.Node, want[i])
		}
	}
	if res.TotalMoves != 28 {
		t.Errorf("total moves = %d, want 28", res.TotalMoves)
	}
	if !res.Quiesced || !res.QueuesEmpty {
		t.Errorf("quiesced=%v queuesEmpty=%v, want both", res.Quiesced, res.QueuesEmpty)
	}
}

func TestBroadcastWakesWaiter(t *testing.T) {
	// Waiter at node 2; sender at node 0 walks 2 hops then pings.
	res := run(t, 5, []int{2, 0}, script(waitForMail), sendAfter(2))
	if res.Agents[0].Status != sim.StatusHalted {
		t.Error("waiter was not woken and halted")
	}
	if res.Agents[0].Node != 2 || res.Agents[1].Node != 2 {
		t.Errorf("positions = %v", res.Positions())
	}
}

func TestWaitingAgentsQuiesceWithoutMessages(t *testing.T) {
	res := run(t, 6, []int{0, 3}, script(waitForMail), script(waitForMail))
	if !res.AllSuspended() || !res.MailboxesEmpty {
		t.Errorf("agents %v mailboxesEmpty=%v, want all waiting with empty mailboxes", res.Agents, res.MailboxesEmpty)
	}
}

// TestMachineErrorSurfaces checks that every way a frame can fail an
// agent aborts the run with ErrProgram.
func TestMachineErrorSurfaces(t *testing.T) {
	for name, s := range map[string]script{
		"halt with error": fixed(sim.Action{Kind: sim.ActionDone, Err: errors.New("deliberately broken")}),
		"panic":           func(sim.API, int) sim.Action { panic("deliberately broken") },
		"Move":            func(api sim.API, _ int) sim.Action { api.Move(); return halt },
		"MoveVia":         func(api sim.API, _ int) sim.Action { api.MoveVia(0); return halt },
		"AwaitMessages":   func(api sim.API, _ int) sim.Action { api.AwaitMessages(); return halt },
	} {
		if _, err := Run(4, []int{0}, []sim.Program{s}, testTimeout); !errors.Is(err, ErrProgram) {
			t.Errorf("%s: err = %v, want ErrProgram", name, err)
		}
	}
}

// TestMoveAndHaltRejected checks the contradictions a sim.Action can
// express: a move through a port the unidirectional ring lacks, and an
// action kind that does not exist.
func TestMoveAndHaltRejected(t *testing.T) {
	for _, act := range []sim.Action{{Kind: sim.ActionMove, Port: 1}, {}} {
		if _, err := Run(4, []int{0}, []sim.Program{fixed(act)}, testTimeout); !errors.Is(err, ErrProgram) {
			t.Errorf("%+v: err = %v, want ErrProgram", act, err)
		}
	}
}

func TestTimeout(t *testing.T) {
	_, err := Run(4, []int{0}, []sim.Program{fixed(move)}, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestTokenRelease(t *testing.T) {
	res := runNet(t, 5, []ring.NodeID{1, 3}, alg1(2))
	if res.Tokens[1] != 1 || res.Tokens[3] != 1 {
		t.Errorf("tokens = %v", res.Tokens)
	}
}
