package sim

import (
	"errors"
	"testing"

	"agentring/internal/ring"
)

// stepFrame is a test-local Framer whose frame runs one function per
// Step.
type stepFrame func(api API) Action

func (f stepFrame) Run(API) error       { panic("stepFrame runs as a frame") }
func (f stepFrame) Frame() Frame        { return f }
func (f stepFrame) Step(api API) Action { return f(api) }

// runFailing runs prog alone on a 4-ring under TrackState, requires Run
// to fail, and returns its error text, the agent's final status and the
// engine's StateKey.
func runFailing(t *testing.T, prog Program) (string, Status, uint64) {
	t.Helper()
	e, err := NewEngine(ring.MustNew(4), []ring.NodeID{0}, []Program{prog}, Options{TrackState: true})
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

// TestOneErrorContract: the engine ends every agent's action in one
// place, for a coroutine Program and a frame alike. A failure the two
// forms can share (a panic after an observation, an out-of-range port)
// gives the same Run error text and halted status in both. A frame that
// calls a blocking API method or returns an unknown kind fails with the
// engine's own program error. Every failure folds the action's
// observations and nothing else, so the agent's key is that of a frame
// that makes the same observations and halts with an error; a blocking
// call from a frame ends no action and folds no opcode.
func TestOneErrorContract(t *testing.T) {
	cases := []struct {
		name  string
		reads func(API)   // the observations made before the failure; nil for none
		coro  ProgramFunc // the Program form; nil for a frame-only case
		frame stepFrame
		want  string
	}{
		{
			name:  "panic after an observation",
			reads: func(api API) { api.TokensHere() },
			coro:  func(api API) error { api.TokensHere(); panic("boom") },
			frame: func(api API) Action { api.TokensHere(); panic("boom") },
			want:  "agent 0 failed: program panic: boom",
		},
		{
			name:  "out-of-range port",
			reads: func(api API) { api.OutDegree() },
			coro:  func(api API) error { api.OutDegree(); api.MoveVia(5); return nil },
			frame: func(api API) Action { api.OutDegree(); return Action{Kind: ActionMove, Port: 5} },
			want:  "agent 0 failed: program panic: move via port 5 at node with out-degree 1",
		},
		{
			name:  "frame calls Move",
			frame: func(api API) Action { api.Move(); return Action{Kind: ActionDone} },
			want:  "agent 0 failed: program panic: frame agent called a blocking API method",
		},
		{
			name:  "frame calls MoveVia",
			frame: func(api API) Action { api.MoveVia(0); return Action{Kind: ActionDone} },
			want:  "agent 0 failed: program panic: frame agent called a blocking API method",
		},
		{
			name:  "frame calls AwaitMessages",
			frame: func(api API) Action { api.AwaitMessages(); return Action{Kind: ActionDone} },
			want:  "agent 0 failed: program panic: frame agent called a blocking API method",
		},
		{
			name:  "frame returns an unknown kind",
			frame: func(API) Action { return Action{Kind: 99} },
			want:  "agent 0 failed: frame returned unknown action kind 99",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, wantKey := runFailing(t, stepFrame(func(api API) Action {
				if tc.reads != nil {
					tc.reads(api)
				}
				return Action{Kind: ActionDone, Err: errors.New("halt")}
			}))
			forms := map[string]Program{"frame": tc.frame}
			if tc.coro != nil {
				forms["coroutine"] = tc.coro
			}
			for form, prog := range forms {
				msg, status, key := runFailing(t, prog)
				if msg != tc.want {
					t.Errorf("%s: error %q, want %q", form, msg, tc.want)
				}
				if status != StatusHalted {
					t.Errorf("%s: status %v, want halted", form, status)
				}
				if key != wantKey {
					t.Errorf("%s: StateKey %#x, want %#x", form, key, wantKey)
				}
			}
		})
	}
}
