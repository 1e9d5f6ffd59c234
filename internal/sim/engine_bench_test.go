package sim

import (
	"fmt"
	"testing"

	"agentring/internal/memmeter"
	"agentring/internal/ring"
	"agentring/internal/topo"
)

// reportEngineFootprint measures the live-heap bytes retained by one
// fully constructed (but not yet run) n-node engine with k walkers and
// reports it as bytes/node — the gated memory-growth metric of the
// million-node benchmarks. Measured outside the timed region.
func reportEngineFootprint(b *testing.B, n, k, walk int, homes []int) {
	b.Helper()
	_, fp := memmeter.HeapFootprint(func() any {
		programs := make([]Program, k)
		for j := range programs {
			programs[j] = walker(walk)
		}
		e, err := NewEngine(ring.MustNew(n), homes, programs, Options{Scheduler: NewRoundRobin()})
		if err != nil {
			b.Fatal(err)
		}
		return e
	})
	b.ReportMetric(float64(fp)/float64(n), "bytes/node")
}

// BenchmarkSteadyState measures the engine's raw stepping rate: k agents
// walking far enough that the run is dominated by the steady-state
// arrival loop (no messages, no wakes). It reports steps/op so the
// derived steps/sec (steps/op divided by ns/op) and B/op track the
// engine's per-action overhead across ring sizes, plus bytes/node (the
// engine's retained construction footprint) so memory growth is a gated
// metric. The n=1e6 row is the million-node gate; it is skipped under
// -short so smoke runs stay fast.
func BenchmarkSteadyState(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		const k = 100
		walk := 2 * n / k // keep total work O(n) per run across sizes
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			if n >= 1000000 && testing.Short() {
				b.Skip("million-node row skipped in -short mode")
			}
			homes := make([]int, k)
			for i := range homes {
				homes[i] = i * (n / k)
			}
			var steps int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				programs := make([]Program, k)
				for j := range programs {
					programs[j] = walker(walk)
				}
				r := ring.MustNew(n)
				e, err := NewEngine(r, homes, programs, Options{Scheduler: NewRoundRobin()})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.StopTimer()
			// After the timed region: ResetTimer discards metrics
			// reported before it.
			reportEngineFootprint(b, n, k, walk, homes)
			b.ReportMetric(float64(steps), "steps/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
		})
	}
}

// BenchmarkSteadyStateRandom is BenchmarkSteadyState under the Random
// scheduler, which the fast path does not serve: every step goes
// through DecisionPoint, the scheduler's Pick and ApplyChoice, so its
// ns/step gates the generic decision loop and the patched choice list.
// k = 256 makes a list eight times as long as k = 32.
func BenchmarkSteadyStateRandom(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, k := range []int{32, 256} {
			walk := 2 * n / k
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				steadyState(b, ring.MustNew(n), k,
					func(i int) Scheduler { return NewRandom(int64(i)) },
					func() Program { return walker(walk) })
			})
		}
	}
}

// BenchmarkSteadyStateXL is the ten-million-node row, separated from
// BenchmarkSteadyState so its construction cost (hundreds of MB of edge
// tables and queues) does not slow the smaller rows' iteration count.
// Skipped under -short.
func BenchmarkSteadyStateXL(b *testing.B) {
	const n, k = 10000000, 100
	walk := 2 * n / k
	b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
		if testing.Short() {
			b.Skip("ten-million-node row skipped in -short mode")
		}
		homes := make([]int, k)
		for i := range homes {
			homes[i] = i * (n / k)
		}
		var steps int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			programs := make([]Program, k)
			for j := range programs {
				programs[j] = walker(walk)
			}
			r := ring.MustNew(n)
			e, err := NewEngine(r, homes, programs, Options{Scheduler: NewRoundRobin()})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := e.Run()
			if err != nil {
				b.Fatal(err)
			}
			steps = res.Steps
		}
		b.StopTimer()
		reportEngineFootprint(b, n, k, walk, homes)
		b.ReportMetric(float64(steps), "steps/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	})
}

// steadyState runs k agents spread evenly across the given substrate,
// under the scheduler mkSched builds for iteration i, and reports
// ns/step: the shared harness of the topology and scheduler
// steady-state benchmarks.
func steadyState(b *testing.B, t Topology, k int, mkSched func(i int) Scheduler, mkProgram func() Program) {
	b.Helper()
	n := t.Size()
	homes := make([]int, k)
	for i := range homes {
		homes[i] = i * (n / k)
	}
	var steps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		programs := make([]Program, k)
		for j := range programs {
			programs[j] = mkProgram()
		}
		e, err := NewEngine(t, homes, programs, Options{Scheduler: mkSched(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "steps/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

func roundRobin(int) Scheduler { return NewRoundRobin() }

// BenchmarkSteadyStateDynRing is BenchmarkSteadyState with a fault
// schedule attached: one link fails early and is repaired shortly
// after, so the run exercises the dynamic-edge plumbing (schedule
// cursor, down mask, frozen queue) while its steady state is dominated
// by all-links-up stepping. The benchdiff gate holds it within 25% of
// the static BenchmarkSteadyState ns/step and at identical allocation
// counts: the dynamic layer must cost the static loop nothing.
func BenchmarkSteadyStateDynRing(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		const k = 100
		walk := 2 * n / k
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			homes := make([]int, k)
			for i := range homes {
				homes[i] = i * (n / k)
			}
			faults := FaultSchedule{
				{Step: 10, From: n / 2, Port: 0, Up: false},
				{Step: 60, From: n / 2, Port: 0, Up: true},
			}
			var steps int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				programs := make([]Program, k)
				for j := range programs {
					programs[j] = walker(walk)
				}
				r := ring.MustNew(n)
				e, err := NewEngine(r, homes, programs, Options{Scheduler: NewRoundRobin(), Faults: faults})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
		})
	}
}

// BenchmarkSteadyStateBiRing is BenchmarkSteadyState on a bidirectional
// ring: the same forward walk, but every node now has two in-edges, so
// the per-directed-edge queue and rank tables are exercised with
// doubled edge counts.
func BenchmarkSteadyStateBiRing(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		walk := 2 * n / 100
		b.Run(fmt.Sprintf("n=%d/k=100", n), func(b *testing.B) {
			bi, err := topo.NewBiRing(n)
			if err != nil {
				b.Fatal(err)
			}
			steadyState(b, bi, 100, roundRobin, func() Program { return walker(walk) })
		})
	}
}

// diagWalker alternates the two out-ports of a torus node for a fixed
// number of moves, as a frame.
type diagWalker struct{ walk, i int }

func (d *diagWalker) Frame() Frame { return d }

func (d *diagWalker) Step(api API) Action {
	if d.i == d.walk {
		return Action{Kind: ActionDone}
	}
	port := d.i % 2
	d.i++
	return Action{Kind: ActionMove, Port: port}
}

func (d *diagWalker) SaveState(buf []int) []int { return append(buf, d.i) }

func (d *diagWalker) LoadState(buf []int) int {
	d.i = buf[0]
	return 1
}

// BenchmarkSteadyStateTorus walks agents diagonally (alternating east
// and south) across a twisted torus, so every step alternates between
// the substrate's two port classes.
func BenchmarkSteadyStateTorus(b *testing.B) {
	for _, dims := range [][2]int{{25, 40}, {100, 100}} {
		n := dims[0] * dims[1]
		walk := 2 * n / 100
		b.Run(fmt.Sprintf("n=%d/k=100", n), func(b *testing.B) {
			tor, err := topo.NewTorus(dims[0], dims[1])
			if err != nil {
				b.Fatal(err)
			}
			steadyState(b, tor, 100, roundRobin, func() Program { return &diagWalker{walk: walk} })
		})
	}
}
