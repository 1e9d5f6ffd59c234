package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"agentring"
)

// TestFixedSizeSubstratesTakeTheirOwnN: a torus or a tree has its own
// size, so run and explore specs on one name no n, as the CLIs' specs
// do not.
func TestFixedSizeSubstratesTakeTheirOwnN(t *testing.T) {
	for _, c := range []struct {
		topology string
		size     int
	}{
		{"torus=2x3", 6},
		{"tree=0-1,1-2,1-3", 6}, // the Euler ring of a 4-node tree
	} {
		run, err := Execute(Spec{Kind: KindRun, Algorithm: "native", Topology: c.topology, K: 3}, 1)
		if err != nil {
			t.Fatalf("run on %s: %v", c.topology, err)
		}
		if cell := run.Cells[0]; cell.N != c.size || cell.K != 3 || !cell.Uniform {
			t.Errorf("run on %s: n=%d k=%d uniform=%v, want n=%d k=3 uniform", c.topology, cell.N, cell.K, cell.Uniform, c.size)
		}
		explore, err := Execute(Spec{Kind: KindExplore, Algorithm: "native", Topology: c.topology, K: 2, Workload: "clustered"}, 1)
		if err != nil {
			t.Fatalf("explore on %s: %v", c.topology, err)
		}
		if rep := explore.Explore; rep.N != c.size || !rep.Complete || rep.Counterexample != nil {
			t.Errorf("explore on %s: n=%d complete=%v counterexample=%v", c.topology, rep.N, rep.Complete, rep.Counterexample)
		}
	}
}

// TestHomesNeedNoK: explicit homes are the placement, so a spec that
// pins them may omit k.
func TestHomesNeedNoK(t *testing.T) {
	run, err := Execute(Spec{Kind: KindRun, Algorithm: "native", N: 8, Homes: []int{0, 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cell := run.Cells[0]; cell.K != 2 || !reflect.DeepEqual(cell.Homes, []int{0, 3}) || !cell.Uniform {
		t.Errorf("run cell k=%d homes=%v uniform=%v, want k=2 homes=[0 3] uniform", cell.K, cell.Homes, cell.Uniform)
	}
	explore, err := Execute(Spec{Kind: KindExplore, Algorithm: "native", N: 6, Homes: []int{0, 1, 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep := explore.Explore; rep.K != 3 || !rep.Complete || rep.Counterexample != nil {
		t.Errorf("explore k=%d complete=%v counterexample=%v", rep.K, rep.Complete, rep.Counterexample)
	}
}

// TestCompileBoundsNodes: a spec whose cells total more than maxNodes
// is rejected as an invalid spec before any placement is built, so the
// rejection allocates next to nothing.
func TestCompileBoundsNodes(t *testing.T) {
	cases := map[string]Spec{
		"one ring past the bound": {Kind: KindRun, Algorithm: "native", N: maxNodes + 1, K: 2},
		"a grid past the bound":   {Kind: KindSweep, Algorithm: "native", Ns: []int{1 << 22}, Ks: []int{2, 3, 4, 5, 6}},
		"a torus past the bound":  {Kind: KindRun, Algorithm: "native", Topology: "torus=100000x100000", K: 2},
		"a torus past int":        {Kind: KindRun, Algorithm: "native", Topology: "torus=4294967296x4294967296", K: 2},
		"too many grid points":    {Kind: KindSweep, Algorithm: "native", Ns: make([]int, 1<<12), Ks: make([]int, 1<<12+1)},
	}
	for name, spec := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Compile(spec)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: error %v, want ErrSpec", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("%s: rejecting the spec allocated %d bytes", name, grew)
		}
	}
	// The bound itself is admitted: one ring of exactly maxNodes nodes.
	if _, err := Compile(Spec{Kind: KindRun, Algorithm: "native", N: maxNodes, K: 2, Workload: "clustered"}); err != nil {
		t.Errorf("a ring of maxNodes nodes: %v", err)
	}
}

// TestCellHookStreamsInOrder: Run hands every cell to the Cell hook in
// grid order, whatever order the worker pool finished them in, and
// streams exactly the cells it returns.
func TestCellHookStreamsInOrder(t *testing.T) {
	p, err := Compile(Spec{Kind: KindSweep, Algorithm: "native", Ns: []int{16, 24, 32}, Ks: []int{2, 4}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []CellResult
	res, err := Run(context.Background(), p, 4, Hooks{Cell: func(c CellResult) { streamed = append(streamed, c) }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, res.Cells) {
		t.Fatalf("streamed cells differ from the returned ones:\n%+v\n%+v", streamed, res.Cells)
	}
	for i, c := range streamed {
		if c.Index != i {
			t.Errorf("cell %d streamed at position %d", c.Index, i)
		}
	}
}

// FuzzSpec feeds arbitrary JSON through spec decoding and compilation,
// the path every job.submit takes inside the daemon: it must never
// panic, and every error must be an invalid-spec error.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"run","algorithm":"native","n":8,"k":2}`,
		`{"kind":"run","algorithm":"native","n":8,"homes":[0,3]}`,
		`{"kind":"sweep","algorithm":"logspace","ns":[16,24],"ks":[2,4],"scheduler":"sync"}`,
		`{"kind":"sweep","algorithm":"native","ns":[0,-4,64],"ks":[-1,0,4],"faults":"churn"}`,
		`{"kind":"explore","algorithm":"native","n":4,"homes":[0,2],"adversary":"1/3"}`,
		`{"kind":"explore","algorithm":"naive","topology":"biring","n":5,"k":2,"faults":"1:2:down,9:2:up"}`,
		`{"kind":"run","algorithm":"relaxed","topology":"torus=2x3","k":2,"workload":"periodic","degree":2}`,
		`{"kind":"run","algorithm":"native","topology":"tree=0-1,1-2","k":2,"workload":"uniform"}`,
		`{"kind":"run","algorithm":"native","topology":"torus=100000x100000","k":2}`,
		`{"kind":"run","algorithm":"native","n":2000000000,"k":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if slowToCompile(spec) {
			t.Skip()
		}
		if _, err := Compile(spec); err != nil && !errors.Is(err, ErrSpec) {
			t.Fatalf("%s: error %v does not wrap ErrSpec", data, err)
		}
	})
}

// slowToCompile reports specs that Compile admits but whose placements
// would make one fuzz execution slow: any cell between 4,096 nodes and
// the bound, or a grid of more than 64 points. Specs past the bound stay
// in, because Compile must reject them before building anything.
func slowToCompile(s Spec) bool {
	large := func(n int) bool { return n > 1<<12 && n <= maxNodes }
	if large(s.N) || len(s.Ns)*len(s.Ks) > 64 {
		return true
	}
	for _, n := range s.Ns {
		if large(n) {
			return true
		}
	}
	topo, err := agentring.ParseTopology(s.Topology, 1)
	return err == nil && large(topo.Size())
}
