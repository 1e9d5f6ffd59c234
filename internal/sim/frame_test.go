package sim

import (
	"errors"
	"testing"

	"agentring/internal/ring"
)

// stepFrame is a test-local frame that runs one function per Step and
// has no state to save.
type stepFrame func(api API) Action

func (f stepFrame) Frame() Frame              { return f }
func (f stepFrame) Step(api API) Action       { return f(api) }
func (f stepFrame) SaveState(buf []int) []int { return buf }
func (f stepFrame) LoadState([]int) int       { return 0 }

// runFailing runs prog alone on a 4-ring under TrackState, requires Run
// to fail, and returns its error text, the agent's final status and the
// engine's StateKey.
func runFailing(t *testing.T, prog Program) (string, Status, uint64) {
	t.Helper()
	e, err := NewEngine(ring.MustNew(4), []int{0}, []Program{prog}, Options{TrackState: true})
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
// place. A panic after an observation, an out-of-range port and an
// unknown kind each fail the run with the engine's own program error
// and halt the agent. Every failure folds the action's observations and
// nothing else, so the agent's key is that of a frame that makes the
// same observations and halts with an error. (internal/reference's
// TestOneErrorContract holds the reference adapter to the same error
// texts and keys.)
func TestOneErrorContract(t *testing.T) {
	cases := []struct {
		name  string
		reads func(API) // the observations made before the failure; nil for none
		frame stepFrame
		want  string
	}{
		{
			name:  "panic after an observation",
			reads: func(api API) { api.TokensHere() },
			frame: func(api API) Action { api.TokensHere(); panic("boom") },
			want:  "agent 0 failed: program panic: boom",
		},
		{
			name:  "out-of-range port",
			reads: func(api API) { api.OutDegree() },
			frame: func(api API) Action { api.OutDegree(); return Action{Kind: ActionMove, Port: 5} },
			want:  "agent 0 failed: program panic: move via port 5 at node with out-degree 1",
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
			msg, status, key := runFailing(t, tc.frame)
			if msg != tc.want {
				t.Errorf("error %q, want %q", msg, tc.want)
			}
			if status != StatusHalted {
				t.Errorf("status %v, want halted", status)
			}
			if key != wantKey {
				t.Errorf("StateKey %#x, want %#x", key, wantKey)
			}
		})
	}
}
