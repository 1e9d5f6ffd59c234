package core

import (
	"fmt"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
)

// subsets enumerates all non-empty subsets of {0..n-1} as sorted position
// slices.
func subsets(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var s []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				s = append(s, v)
			}
		}
		out = append(out, s)
	}
	return out
}

// TestExhaustiveSmallRings runs every algorithm from *every* initial
// configuration of rings up to n=7 — the paper's headline claim is
// "uniform deployment from any initial configuration", and here we take
// "any" literally for small rings (2^7-1 = 127 placements per ring size,
// about 1000 runs in total).
func TestExhaustiveSmallRings(t *testing.T) {
	type algCase struct {
		name string
		mk   func(k int) (sim.Program, error)
		def2 bool
	}
	algs := []algCase{
		{"alg1", func(k int) (sim.Program, error) { return NewAlg1(KnowAgents, k) }, false},
		{"alg2", func(k int) (sim.Program, error) { return NewAlg2(k) }, false},
		{"relaxed", func(k int) (sim.Program, error) { return NewRelaxed(), nil }, true},
	}
	for n := 1; n <= 7; n++ {
		for _, homes := range subsets(n) {
			k := len(homes)
			for _, a := range algs {
				programs := make([]sim.Program, k)
				for i := range programs {
					p, err := a.mk(k)
					if err != nil {
						t.Fatal(err)
					}
					programs[i] = p
				}
				e, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatalf("%s n=%d homes=%v: %v", a.name, n, homes, err)
				}
				if a.def2 {
					err = verify.CheckDefinition2(n, res)
				} else {
					err = verify.CheckDefinition1(n, res)
				}
				if err != nil {
					t.Fatalf("%s n=%d homes=%v: %v", a.name, n, homes, err)
				}
			}
		}
	}
}

// TestExhaustiveRing8Alg1 extends the exhaustive sweep to n=8 for the
// cheapest algorithm, adding another 255 placements.
func TestExhaustiveRing8Alg1(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=8 sweep skipped in -short mode")
	}
	const n = 8
	for _, homes := range subsets(n) {
		k := len(homes)
		for _, know := range []Knowledge{KnowAgents, KnowNodes} {
			value := k
			if know == KnowNodes {
				value = n
			}
			programs := make([]sim.Program, k)
			for i := range programs {
				p, err := NewAlg1(know, value)
				if err != nil {
					t.Fatal(err)
				}
				programs[i] = p
			}
			e, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("know=%v homes=%v: %v", know, homes, err)
			}
			if err := verify.CheckDefinition1(n, res); err != nil {
				t.Fatalf("know=%v homes=%v: %v", know, homes, err)
			}
		}
	}
}

// TestExhaustiveSchedulerCross runs every n=6 placement under the
// adversarial scheduler for the log-space algorithm, the configuration
// most sensitive to interleavings (finding F1).
func TestExhaustiveSchedulerCross(t *testing.T) {
	const n = 6
	for _, homes := range subsets(n) {
		k := len(homes)
		for bound := 1; bound <= 5; bound += 2 {
			programs := make([]sim.Program, k)
			for i := range programs {
				p, err := NewAlg2(k)
				if err != nil {
					t.Fatal(err)
				}
				programs[i] = p
			}
			e, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{
				Scheduler: sim.NewAdversarial(bound),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("bound=%d homes=%v: %v", bound, homes, err)
			}
			if err := verify.CheckDefinition1(n, res); err != nil {
				t.Fatalf("bound=%d homes=%v: %v", bound, homes, err)
			}
		}
	}
}

func ExampleTargetOffset() {
	// n=10 agents=3, one base node: targets at offsets 0, 4, 7 (gaps
	// 4,3,3 — that is ceil(10/3) once, floor twice).
	for rank := 0; rank < 3; rank++ {
		off, _ := TargetOffset(10, 3, 1, rank)
		fmt.Println(off)
	}
	// Output:
	// 0
	// 4
	// 7
}
