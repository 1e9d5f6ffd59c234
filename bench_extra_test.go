package agentring_test

import (
	"math/rand"
	"testing"

	"agentring"
	"agentring/internal/lcm"
)

// BenchmarkSubstrateComparison compares the two substrates on the same
// workload: the deterministic engine vs the concurrent
// message-passing runtime (agents as serialized messages).
func BenchmarkSubstrateComparison(b *testing.B) {
	const n, k = 128, 16
	homes, err := agentring.RandomHomes(n, k, 999)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine", func(b *testing.B) {
		var rep agentring.Report
		for i := 0; i < b.N; i++ {
			rep, err = agentring.Run(agentring.Native, agentring.Config{N: n, Homes: homes})
			if err != nil {
				b.Fatal(err)
			}
		}
		if !rep.Uniform {
			b.Fatal("not uniform")
		}
		b.ReportMetric(float64(rep.TotalMoves), "moves")
	})
	b.Run("messagepassing", func(b *testing.B) {
		var rep agentring.Report
		for i := 0; i < b.N; i++ {
			rep, err = agentring.RunConcurrent(agentring.Native, agentring.Config{N: n, Homes: homes})
			if err != nil {
				b.Fatal(err)
			}
		}
		if !rep.Uniform {
			b.Fatal("not uniform")
		}
		b.ReportMetric(float64(rep.TotalMoves), "moves")
	})
}

// BenchmarkTreeEmbedding measures the Section 5 extension: uniform
// deployment on a complete binary tree via the Euler-tour virtual ring.
func BenchmarkTreeEmbedding(b *testing.B) {
	// Complete binary tree on 63 nodes.
	var edges [][2]int
	for i := 0; i < 31; i++ {
		edges = append(edges, [2]int{i, 2*i + 1}, [2]int{i, 2*i + 2})
	}
	tree, err := agentring.NewTree(63, edges)
	if err != nil {
		b.Fatal(err)
	}
	agents := []int{31, 32, 33, 34, 35, 36, 37, 38} // leaves of one subtree
	var rep agentring.TreeReport
	for i := 0; i < b.N; i++ {
		rep, err = agentring.RunOnTree(agentring.LogSpace, tree, 0, agents, agentring.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Ring.Uniform {
		b.Fatal("virtual ring not uniform")
	}
	b.ReportMetric(float64(rep.Ring.TotalMoves), "edgeTraversals")
	b.ReportMetric(float64(rep.WorstCoverage), "worstCoverage")
	b.ReportMetric(float64(rep.VirtualRingSize), "virtualNodes")
}

// BenchmarkBoothMinRotation measures the sequence-toolkit hot path used
// by every selection phase.
func BenchmarkBoothMinRotation(b *testing.B) {
	homes, err := agentring.RandomHomes(4096, 512, 31)
	if err != nil {
		b.Fatal(err)
	}
	_ = homes
	// Build a gap sequence of length 512 deterministically.
	d := make([]int, 512)
	for i := range d {
		d[i] = (i*i)%7 + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = minRotationViaFacade(d)
	}
}

var benchSink int

// minRotationViaFacade exercises the rotation machinery indirectly via
// the symmetry-degree entry point (the facade does not export Booth's
// algorithm itself).
func minRotationViaFacade(d []int) int {
	n := 0
	for _, g := range d {
		n += g
	}
	homes := make([]int, len(d))
	at := 0
	for i, g := range d {
		homes[i] = at
		at += g
	}
	deg, err := agentring.SymmetryDegree(n, homes)
	if err != nil {
		return -1
	}
	return deg
}

// BenchmarkLCMComparison contrasts the related-work Look-Compute-Move
// model ([10] in the paper) with the paper's token-based algorithm on
// the same clustered workload: visibility-based oblivious balancing
// (semi-synchronous rounds to balance) vs token-based deployment with
// termination detection.
func BenchmarkLCMComparison(b *testing.B) {
	const n, k = 48, 6
	b.Run("lcm-visibility", func(b *testing.B) {
		var rounds, moves int
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(5))
			sys, err := lcm.New(lcm.Config{N: n, K: k, VR: n / k}, []int{0, 1, 2, 3, 4, 5}, rng)
			if err != nil {
				b.Fatal(err)
			}
			rounds = 0
			for !sys.Balanced() {
				sys.Round()
				rounds++
				if rounds > 200000 {
					b.Fatal("LCM failed to balance")
				}
			}
			moves = sys.Moves()
		}
		b.ReportMetric(float64(rounds), "rounds")
		b.ReportMetric(float64(moves), "moves")
		b.ReportMetric(0, "quiescent") // agents cannot detect completion
	})
	b.Run("token-logspace", func(b *testing.B) {
		homes, err := agentring.ClusteredHomes(n, k)
		if err != nil {
			b.Fatal(err)
		}
		var rep agentring.Report
		for i := 0; i < b.N; i++ {
			rep, err = agentring.Run(agentring.LogSpace, agentring.Config{
				N: n, Homes: homes, Scheduler: agentring.Synchronous,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		if !rep.Uniform {
			b.Fatal("not uniform")
		}
		b.ReportMetric(float64(rep.Rounds), "rounds")
		b.ReportMetric(float64(rep.TotalMoves), "moves")
		b.ReportMetric(1, "quiescent") // termination detected
	})
}
