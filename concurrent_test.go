package agentring_test

import (
	"errors"
	"testing"

	"agentring"
)

func TestRunConcurrentNative(t *testing.T) {
	homes, err := agentring.RandomHomes(36, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agentring.RunConcurrent(agentring.Native, agentring.Config{N: 36, Homes: homes})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Uniform {
		t.Fatalf("not uniform: %s", rep.Why)
	}
	if !rep.Definition1 || rep.Topology != "ring(36)" {
		t.Errorf("Definition1 = %v, Topology = %q; want true, ring(36)", rep.Definition1, rep.Topology)
	}
	for _, a := range rep.Agents {
		if !a.Halted {
			t.Error("native agents must halt")
		}
	}
	// The serial engine must agree on every final position.
	serial, err := agentring.Run(agentring.Native, agentring.Config{N: 36, Homes: homes})
	if err != nil {
		t.Fatal(err)
	}
	for i := range homes {
		if serial.Positions[i] != rep.Positions[i] {
			t.Errorf("agent %d: serial %d vs concurrent %d", i, serial.Positions[i], rep.Positions[i])
		}
	}
}

func TestRunConcurrentLogSpaceAndRelaxed(t *testing.T) {
	homes, err := agentring.RandomHomes(30, 5, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []agentring.Algorithm{agentring.LogSpace, agentring.Relaxed} {
		rep, err := agentring.RunConcurrent(alg, agentring.Config{N: 30, Homes: homes})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !rep.Uniform {
			t.Fatalf("%s: not uniform: %s", alg, rep.Why)
		}
		// LogSpace halts (Definition 1); Relaxed ends suspended
		// (Definition 2 only).
		wantDef1 := alg == agentring.LogSpace
		if rep.Definition1 != wantDef1 || rep.Definition2 == wantDef1 {
			t.Errorf("%s: Definition1 = %v, Definition2 = %v", alg, rep.Definition1, rep.Definition2)
		}
		if alg == agentring.Relaxed {
			for _, a := range rep.Agents {
				if !a.Suspended {
					t.Error("relaxed agents must end suspended")
				}
			}
		}
	}
}

func TestRunConcurrentErrors(t *testing.T) {
	ring8, err := agentring.NewRingTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		alg  agentring.Algorithm
		cfg  agentring.Config
	}{
		{"bad n", agentring.Native, agentring.Config{N: 0, Homes: []int{0}}},
		{"no agents", agentring.Native, agentring.Config{N: 4}},
		{"unsupported algorithm", agentring.FirstFit, agentring.Config{N: 4, Homes: []int{0}}},
		{"duplicate homes", agentring.Native, agentring.Config{N: 6, Homes: []int{1, 1}}},
		{"home out of range", agentring.Native, agentring.Config{N: 6, Homes: []int{9}}},
		{"N disagrees with topology", agentring.Native, agentring.Config{N: 5, Topology: ring8, Homes: []int{0}}},
	}
	for _, c := range cases {
		if _, err := agentring.RunConcurrent(c.alg, c.cfg); !errors.Is(err, agentring.ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", c.name, err)
		}
	}
}
