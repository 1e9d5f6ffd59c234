package reference

import (
	"errors"
	"strings"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
)

// stepFrame is a frame that runs one function per Step and has no
// state to save.
type stepFrame func(api sim.API) sim.Action

func (f stepFrame) Frame() sim.Frame            { return f }
func (f stepFrame) Step(api sim.API) sim.Action { return f(api) }
func (f stepFrame) SaveState(buf []int) []int   { return buf }
func (f stepFrame) LoadState([]int) int         { return 0 }

// runFailing runs prog alone on a 4-ring under TrackState, requires Run
// to fail, and returns its error text, the agent's final status and the
// engine's StateKey.
func runFailing(t *testing.T, prog sim.Program) (string, sim.Status, uint64) {
	t.Helper()
	e, err := sim.NewEngine(ring.MustNew(4), []int{0}, []sim.Program{prog}, sim.Options{TrackState: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err == nil {
		t.Fatal("Run succeeded, want a program error")
	}
	if got, want := e.StateKey(), e.Snapshot().Key(); got != want {
		t.Errorf("StateKey %#x, Snapshot().Key %#x", got, want)
	}
	return err.Error(), res.Agents[0].Status, e.StateKey()
}

// TestOneErrorContract: a failure a body and a frame can share — a
// panic after an observation, a move through a port the node lacks —
// gives the same Run error text, halted status and StateKey in both
// forms. The engine's step function vets the adapter's Actions as it
// vets a frame's (internal/sim's TestOneErrorContract covers the
// frame-only failures).
func TestOneErrorContract(t *testing.T) {
	cases := []struct {
		name  string
		body  Func
		frame stepFrame
		want  string
	}{
		{
			name:  "panic after an observation",
			body:  func(api API) error { api.TokensHere(); panic("boom") },
			frame: func(api sim.API) sim.Action { api.TokensHere(); panic("boom") },
			want:  "agent 0 failed: program panic: boom",
		},
		{
			name:  "out-of-range port",
			body:  func(api API) error { api.OutDegree(); api.MoveVia(5); return nil },
			frame: func(api sim.API) sim.Action { api.OutDegree(); return sim.Action{Kind: sim.ActionMove, Port: 5} },
			want:  "agent 0 failed: program panic: move via port 5 at node with out-degree 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantMsg, wantStatus, wantKey := runFailing(t, tc.frame)
			if wantMsg != tc.want || wantStatus != sim.StatusHalted {
				t.Fatalf("frame: error %q and status %v, want %q and halted", wantMsg, wantStatus, tc.want)
			}
			msg, status, key := runFailing(t, Program(t, tc.body))
			if msg != wantMsg {
				t.Errorf("reference: error %q, want %q", msg, wantMsg)
			}
			if status != wantStatus {
				t.Errorf("reference: status %v, want %v", status, wantStatus)
			}
			if key != wantKey {
				t.Errorf("reference: StateKey %#x, want %#x", key, wantKey)
			}
		})
	}
}

// TestAdapterLifecycle: a body runs from its agent's first activation;
// a returned error halts the agent and fails the run; a body parked at
// quiescence stays parked until its test's cleanup, which unwinds it
// (its deferred calls run) before t.Run returns; and the adapter
// refuses to save or load a state, naming the reference.
func TestAdapterLifecycle(t *testing.T) {
	boom := errors.New("boom")
	unwound := 0
	t.Run("park", func(t *testing.T) {
		park := func(api API) error {
			defer func() { unwound++ }()
			api.Move()
			api.AwaitMessages() // never woken
			return nil
		}
		fail := func(api API) error {
			api.Move()
			return boom
		}
		e, err := sim.NewEngine(ring.MustNew(4), []int{0, 2},
			[]sim.Program{Program(t, park), Program(t, park)}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSuspended() || res.TotalMoves != 2 {
			t.Fatalf("parked run: all suspended %v after %d moves, want true after 2", res.AllSuspended(), res.TotalMoves)
		}
		if unwound != 0 {
			t.Fatalf("%d bodies unwound before the test's cleanup", unwound)
		}
		e, err = sim.NewEngine(ring.MustNew(4), []int{0}, []sim.Program{Program(t, fail)}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := e.Run(); !errors.Is(err, boom) || res.Agents[0].Status != sim.StatusHalted {
			t.Fatalf("failing body: error %v, status %v; want boom, halted", err, res.Agents[0].Status)
		}
	})
	if unwound != 2 {
		t.Fatalf("%d of 2 parked bodies unwound by the test's cleanup", unwound)
	}

	f := Program(t, func(API) error { return nil }).Frame()
	for name, call := range map[string]func(){
		"SaveState": func() { f.SaveState(nil) },
		"LoadState": func() { f.LoadState([]int{0}) },
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "reference agent") {
					t.Errorf("%s: panic %q, want one naming the reference agent", name, r)
				}
			}()
			call()
		}()
	}
}
