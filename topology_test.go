package agentring_test

import (
	"context"
	"errors"
	"testing"

	"agentring"
	"agentring/internal/experiments"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		kind string
		size int
	}{
		{"ring", 8, "ring", 8},
		{"", 8, "ring", 8},
		{"biring", 5, "biring", 5},
		{"torus=3x4", 0, "torus", 12},
		{"tree=0-1,1-2,1-3", 0, "tree", 6}, // 4 tree nodes -> euler ring 2*(4-1)
	}
	for _, tc := range cases {
		topo, err := agentring.ParseTopology(tc.spec, tc.n)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", tc.spec, err)
			continue
		}
		if topo.Kind() != tc.kind || topo.Size() != tc.size {
			t.Errorf("ParseTopology(%q) = %s/%d, want %s/%d", tc.spec, topo.Kind(), topo.Size(), tc.kind, tc.size)
		}
	}
	for _, bad := range []string{"moebius", "torus=3", "torus=ax2", "tree=0", "tree=0-1,0-1"} {
		if _, err := agentring.ParseTopology(bad, 4); !errors.Is(err, agentring.ErrConfig) {
			t.Errorf("ParseTopology(%q) err = %v, want ErrConfig", bad, err)
		}
	}
}

func TestTopologySizeMismatchRejected(t *testing.T) {
	topo, err := agentring.NewBiRingTopology(6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = agentring.Run(agentring.Native, agentring.Config{N: 5, Topology: topo, Homes: []int{0, 2}})
	if !errors.Is(err, agentring.ErrConfig) {
		t.Errorf("size-mismatch err = %v, want ErrConfig", err)
	}
}

func TestBiNativeRequiresBiRing(t *testing.T) {
	_, err := agentring.Run(agentring.BiNative, agentring.Config{N: 6, Homes: []int{0, 2}})
	if !errors.Is(err, agentring.ErrConfig) {
		t.Errorf("BiNative on default ring err = %v, want ErrConfig", err)
	}
	torus, err := agentring.NewTorusTopology(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agentring.Run(agentring.BiNative, agentring.Config{Topology: torus, Homes: []int{0, 3}}); !errors.Is(err, agentring.ErrConfig) {
		t.Errorf("BiNative on torus err = %v, want ErrConfig", err)
	}
}

// TestBiNativeMatchesNativePositions pins the design claim of the
// bidirectional variant: identical final positions to Algorithm 1 on
// the same initial configuration (targets are a pure function of the
// token geometry), never more total moves, and strictly fewer whenever
// some target lies shorter backward.
func TestBiNativeMatchesNativePositions(t *testing.T) {
	strictly := 0
	for _, tc := range []struct {
		n     int
		seed  int64
		k     int
		sched agentring.SchedulerKind
	}{
		{12, 1, 3, agentring.RoundRobin},
		{16, 2, 4, agentring.RandomSched},
		{24, 3, 6, agentring.Adversarial},
		{36, 4, 6, agentring.Synchronous},
		{25, 5, 5, agentring.RoundRobin},
		{40, 6, 8, agentring.RandomSched},
	} {
		homes, err := agentring.RandomHomes(tc.n, tc.k, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		uni, err := agentring.Run(agentring.Native, agentring.Config{
			N: tc.n, Homes: homes, Scheduler: tc.sched, Seed: tc.seed,
		})
		if err != nil {
			t.Fatalf("native n=%d: %v", tc.n, err)
		}
		topo, err := agentring.NewBiRingTopology(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		bi, err := agentring.Run(agentring.BiNative, agentring.Config{
			Topology: topo, Homes: homes, Scheduler: tc.sched, Seed: tc.seed,
		})
		if err != nil {
			t.Fatalf("binative n=%d: %v", tc.n, err)
		}
		if !bi.Uniform {
			t.Errorf("n=%d: binative not uniform: %s", tc.n, bi.Why)
		}
		for i := range homes {
			if bi.Positions[i] != uni.Positions[i] {
				t.Errorf("n=%d agent %d: binative at %d, native at %d", tc.n, i, bi.Positions[i], uni.Positions[i])
			}
		}
		if bi.TotalMoves > uni.TotalMoves {
			t.Errorf("n=%d: binative moves %d exceed native's %d", tc.n, bi.TotalMoves, uni.TotalMoves)
		}
		if bi.TotalMoves < uni.TotalMoves {
			strictly++
		}
	}
	if strictly == 0 {
		t.Error("binative never saved moves across all cases; shortcut path untested")
	}
}

// TestExploreBiNativeExhaustiveSmallRings model-checks the
// bidirectional algorithm over the complete asynchronous schedule space
// of every initial configuration (up to rotation) of bidirectional
// rings with n <= 5: full coverage, no counterexample, under the
// multi-port-sound partial-order reduction.
func TestExploreBiNativeExhaustiveSmallRings(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search")
	}
	for n := 1; n <= 5; n++ {
		rows, err := experiments.ExploreAllStream(context.Background(), agentring.BiNative, "biring", n, nil, agentring.ExploreOptions{}, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, r := range rows {
			if !r.Report.Complete {
				t.Errorf("n=%d homes=%v: search incomplete", n, r.Homes)
			}
			if r.Report.Counterexample != nil {
				t.Errorf("n=%d homes=%v: counterexample: %s", n, r.Homes, r.Report.Counterexample.Reason)
			}
		}
	}
}

func TestExploreTopologyEcho(t *testing.T) {
	topo, err := agentring.NewBiRingTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agentring.Explore(context.Background(), agentring.BiNative, agentring.Config{Topology: topo, Homes: []int{0, 2}}, agentring.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Topology != "biring(4)" || rep.N != 4 {
		t.Errorf("report echo = %q n=%d", rep.Topology, rep.N)
	}
	if rep.Counterexample != nil {
		t.Errorf("unexpected counterexample: %s", rep.Counterexample.Reason)
	}
}

func TestTorusRunUniformAlongHamiltonianCycle(t *testing.T) {
	topo, err := agentring.NewTorusTopology(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	homes, err := topo.ClusteredHomes(8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agentring.Run(agentring.LogSpace, agentring.Config{Topology: topo, Homes: homes})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Uniform {
		t.Errorf("logspace on torus not uniform along the port-0 cycle: %s", rep.Why)
	}
	if rep.Topology != "torus(4x8)" {
		t.Errorf("report topology = %q", rep.Topology)
	}
}
