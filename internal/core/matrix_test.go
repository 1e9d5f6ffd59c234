package core

import (
	"fmt"
	"math/rand"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

// TestWorkloadAlgorithmMatrix runs every algorithm against every
// workload shape under two schedulers — the broad integration sweep.
func TestWorkloadAlgorithmMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	type wl struct {
		name  string
		homes func(n, k int) ([]int, error)
	}
	workloads := []wl{
		{"random", func(n, k int) ([]int, error) { return workload.Random(n, k, rng) }},
		{"clustered", workload.Clustered},
		{"uniform", workload.Uniform},
		{"two-clusters", workload.TwoClusters},
		{"geometric", workload.Geometric},
	}
	type alg struct {
		name string
		mk   func(k int) (sim.Program, error)
		def2 bool
	}
	algs := []alg{
		{"alg1", func(k int) (sim.Program, error) { return NewAlg1(KnowAgents, k) }, false},
		{"alg2", func(k int) (sim.Program, error) { return NewAlg2(k) }, false},
		{"relaxed", func(k int) (sim.Program, error) { return NewRelaxed(), nil }, true},
	}
	scheds := []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"roundrobin", func() sim.Scheduler { return sim.NewRoundRobin() }},
		{"adversarial", func() sim.Scheduler { return sim.NewAdversarial(5) }},
	}
	const n, k = 36, 6
	for _, w := range workloads {
		for _, a := range algs {
			for _, s := range scheds {
				name := fmt.Sprintf("%s/%s/%s", w.name, a.name, s.name)
				t.Run(name, func(t *testing.T) {
					homes, err := w.homes(n, k)
					if err != nil {
						t.Fatal(err)
					}
					programs := make([]sim.Program, k)
					for i := range programs {
						p, err := a.mk(k)
						if err != nil {
							t.Fatal(err)
						}
						programs[i] = p
					}
					e, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{Scheduler: s.mk()})
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					if a.def2 {
						err = verify.CheckDefinition2(n, res)
					} else {
						err = verify.CheckDefinition1(n, res)
					}
					if err != nil {
						t.Fatalf("homes=%v: %v", homes, err)
					}
				})
			}
		}
	}
}
