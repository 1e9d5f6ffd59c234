package rendezvous

import (
	"errors"
	"math/rand"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/workload"
)

func build(t *testing.T, n int, homes []int) *sim.Engine {
	t.Helper()
	programs := make([]sim.Program, len(homes))
	for i := range programs {
		p, err := New(len(homes))
		if err != nil {
			t.Fatal(err)
		}
		programs[i] = p
	}
	e, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) must fail")
	}
}

func TestRendezvousGathersOnAperiodicRing(t *testing.T) {
	homes := []int{0, 1, 5, 7, 8, 10} // aperiodic gaps
	e := build(t, 12, homes)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHalted() {
		t.Fatal("agents must halt")
	}
	first := res.Agents[0].Node
	for i, a := range res.Agents {
		if a.Node != first {
			t.Errorf("agent %d at node %d, want gathering at %d", i, a.Node, first)
		}
	}
}

func TestRendezvousFailsOnPeriodicRing(t *testing.T) {
	// Gaps (1,2,3)^2: periodic, rendezvous impossible.
	homes := []int{0, 1, 3, 6, 7, 9}
	e := build(t, 12, homes)
	if _, err := e.Run(); !errors.Is(err, ErrSymmetric) {
		t.Errorf("error = %v, want ErrSymmetric", err)
	}
}

func TestRendezvousRandomAperiodic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	done := 0
	for trial := 0; trial < 40 && done < 20; trial++ {
		n := 3 + rng.Intn(40)
		k := 2 + rng.Intn(n-1)
		homes, err := workload.Random(n, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		e := build(t, n, homes)
		res, err := e.Run()
		if errors.Is(err, ErrSymmetric) {
			continue // the random draw happened to be periodic; skip
		}
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		first := res.Agents[0].Node
		for i, a := range res.Agents {
			if a.Node != first {
				t.Fatalf("n=%d k=%d agent %d at %d, want %d", n, k, i, a.Node, first)
			}
		}
		done++
	}
	if done == 0 {
		t.Fatal("no aperiodic draws tested")
	}
}

func TestRendezvousFailsOnEveryPeriodicDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, c := range []struct{ n, k, l int }{{12, 6, 2}, {24, 8, 4}, {36, 12, 3}, {20, 4, 4}} {
		homes, err := workload.PeriodicWithDegree(c.n, c.k, c.l, rng)
		if err != nil {
			t.Fatal(err)
		}
		e := build(t, c.n, homes)
		if _, err := e.Run(); !errors.Is(err, ErrSymmetric) {
			t.Errorf("l=%d: error = %v, want ErrSymmetric", c.l, err)
		}
	}
}
