// Benchmarks regenerating every table and figure claim of the paper.
// Each benchmark reports the paper's own metrics (total moves, ideal
// time in rounds, peak memory in words) via b.ReportMetric, so
// `go test -bench=. -benchmem` prints one row per table cell and figure
// point.
package agentring_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"agentring"
	"agentring/internal/jobs"
)

func reportRow(b *testing.B, row jobs.CellResult) {
	b.Helper()
	if !row.Uniform {
		b.Fatalf("run not uniform: %+v", row)
	}
	b.ReportMetric(float64(row.Moves), "moves")
	b.ReportMetric(float64(row.MaxMoves), "moves/agent")
	b.ReportMetric(float64(row.Rounds), "rounds")
	b.ReportMetric(float64(row.PeakWords), "memwords")
	b.ReportMetric(float64(row.Messages), "msgs")
}

// runSpec executes one run spec through the job executor and returns
// its cell.
func runSpec(b *testing.B, spec jobs.Spec) jobs.CellResult {
	b.Helper()
	spec.Kind = jobs.KindRun
	res, err := jobs.Execute(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cells[0]
}

func benchSpec(b *testing.B, spec jobs.Spec) {
	b.Helper()
	var last jobs.CellResult
	for i := 0; i < b.N; i++ {
		last = runSpec(b, spec)
	}
	reportRow(b, last)
}

// BenchmarkTable1Alg1 regenerates Table 1 column 1 (Algorithm 1:
// O(k log n) memory, O(n) time, O(kn) moves) over an (n, k) grid.
func BenchmarkTable1Alg1(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, k := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				benchSpec(b, jobs.Spec{
					Algorithm: "native", N: n, K: k,
					Workload: "random", Seed: int64(n + k),
					Scheduler: "synchronous",
				})
			})
		}
	}
}

// BenchmarkTable1Alg2 regenerates Table 1 column 2 (Algorithms 2+3:
// O(log n) memory, O(n log k) time, O(kn) moves).
func BenchmarkTable1Alg2(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, k := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				benchSpec(b, jobs.Spec{
					Algorithm: "logspace", N: n, K: k,
					Workload: "random", Seed: int64(n + k),
					Scheduler: "synchronous",
				})
			})
		}
	}
}

// BenchmarkTable1Relaxed regenerates Table 1 column 4 (relaxed
// algorithm: O((k/l) log(n/l)) memory, O(n/l) time, O(kn/l) moves) as a
// sweep over the symmetry degree l.
func BenchmarkTable1Relaxed(b *testing.B) {
	const n, k = 512, 16
	for _, l := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d/k=%d/l=%d", n, k, l), func(b *testing.B) {
			benchSpec(b, jobs.Spec{
				Algorithm: "relaxed", N: n, K: k,
				Workload: "periodic", Degree: l, Seed: 9,
				Scheduler: "synchronous",
			})
		})
	}
}

// BenchmarkFig3LowerBound measures the Theorem 1 configuration: all
// agents clustered in a quarter arc, forcing >= kn/16 total moves for
// every algorithm.
func BenchmarkFig3LowerBound(b *testing.B) {
	const n, k, floor = 256, 32, 32 * 256 / 16
	for _, alg := range []string{"native", "logspace", "relaxed"} {
		b.Run(alg, func(b *testing.B) {
			var row jobs.CellResult
			for i := 0; i < b.N; i++ {
				row = runSpec(b, jobs.Spec{
					Algorithm: alg, N: n, K: k, Workload: "clustered", Scheduler: "synchronous",
				})
			}
			if !row.Uniform || row.Moves < floor {
				b.Fatalf("moves %d (uniform %v) below Theorem 1 floor %d", row.Moves, row.Uniform, floor)
			}
			b.ReportMetric(float64(row.Moves), "moves")
			b.ReportMetric(float64(floor), "floor")
		})
	}
}

// BenchmarkFig7Impossibility replays the Theorem 5 pumping
// construction: the estimate-then-halt algorithm succeeds on the base
// ring and misdeploys on the pumped ring. The metric "pumpedUniform"
// must stay 0.
func BenchmarkFig7Impossibility(b *testing.B) {
	base := []int{0, 1, 5, 7, 8, 10}
	bigN, bigHomes, err := agentring.PumpedHomes(12, base, 5, 5)
	if err != nil {
		b.Fatal(err)
	}
	var pumped agentring.Report
	for i := 0; i < b.N; i++ {
		pumped, err = agentring.Run(agentring.NaiveHalting, agentring.Config{N: bigN, Homes: bigHomes})
		if err != nil {
			b.Fatal(err)
		}
	}
	if pumped.Uniform {
		b.Fatal("pumped ring must not be uniform under the naive algorithm")
	}
	b.ReportMetric(0, "pumpedUniform")
	b.ReportMetric(float64(pumped.TotalMoves), "moves")
}

// BenchmarkFig9Recovery measures the misestimation-recovery scenario of
// Fig 9 (n=27, k=9, one agent estimates correctly and fixes the rest).
func BenchmarkFig9Recovery(b *testing.B) {
	homes := []int{0, 11, 12, 15, 16, 19, 20, 23, 24}
	var rep agentring.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = agentring.Run(agentring.Relaxed, agentring.Config{N: 27, Homes: homes})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Uniform {
		b.Fatalf("Fig 9 not uniform: %s", rep.Why)
	}
	b.ReportMetric(float64(rep.TotalMoves), "moves")
	b.ReportMetric(float64(rep.MessagesSent), "msgs")
}

// BenchmarkFig11Periodic measures the (N,l)-periodic-ring case of
// Fig 11 where every agent misestimates consistently yet uniform
// deployment holds.
func BenchmarkFig11Periodic(b *testing.B) {
	homes := []int{0, 2, 6, 8} // gaps (2,4)^2 on a 12-ring
	var rep agentring.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = agentring.Run(agentring.Relaxed, agentring.Config{N: 12, Homes: homes})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Uniform {
		b.Fatalf("Fig 11 not uniform: %s", rep.Why)
	}
	b.ReportMetric(float64(rep.TotalMoves), "moves")
}

// BenchmarkRendezvousContrast quantifies the intro's solvability
// contrast: on a periodic configuration uniform deployment succeeds
// while rendezvous is impossible. Reported metric "udUniform" must be 1.
func BenchmarkRendezvousContrast(b *testing.B) {
	homes, err := agentring.PeriodicHomes(24, 8, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	var rep agentring.Report
	for i := 0; i < b.N; i++ {
		rep, err = agentring.Run(agentring.LogSpace, agentring.Config{N: 24, Homes: homes})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Uniform {
		b.Fatal("uniform deployment must succeed where rendezvous cannot")
	}
	b.ReportMetric(1, "udUniform")
	b.ReportMetric(float64(rep.TotalMoves), "moves")
}

// BenchmarkSchedulerAblation measures how the interleaving policy
// affects cost (correctness must hold under all schedulers).
func BenchmarkSchedulerAblation(b *testing.B) {
	homes, err := agentring.RandomHomes(128, 16, 77)
	if err != nil {
		b.Fatal(err)
	}
	scheds := map[string]agentring.SchedulerKind{
		"roundrobin":  agentring.RoundRobin,
		"random":      agentring.RandomSched,
		"synchronous": agentring.Synchronous,
		"adversarial": agentring.Adversarial,
	}
	for name, kind := range scheds {
		b.Run(name, func(b *testing.B) {
			var rep agentring.Report
			for i := 0; i < b.N; i++ {
				rep, err = agentring.Run(agentring.LogSpace, agentring.Config{
					N: 128, Homes: homes, Scheduler: kind, Seed: 7, AdversaryBound: 16,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if !rep.Uniform {
				b.Fatalf("not uniform under %s", name)
			}
			b.ReportMetric(float64(rep.TotalMoves), "moves")
			b.ReportMetric(float64(rep.Steps), "steps")
		})
	}
}

// BenchmarkAlgorithmComparison runs all three paper algorithms plus the
// first-fit ablation on one shared configuration, the cross-column
// comparison of Table 1.
func BenchmarkAlgorithmComparison(b *testing.B) {
	const n, k = 256, 16
	homes, err := agentring.RandomHomes(n, k, 123)
	if err != nil {
		b.Fatal(err)
	}
	algs := []agentring.Algorithm{
		agentring.Native, agentring.NativeKnowN, agentring.LogSpace,
		agentring.Relaxed, agentring.FirstFit,
	}
	for _, alg := range algs {
		b.Run(alg.String(), func(b *testing.B) {
			var rep agentring.Report
			for i := 0; i < b.N; i++ {
				rep, err = agentring.Run(alg, agentring.Config{
					N: n, Homes: homes, Scheduler: agentring.Synchronous,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if alg != agentring.FirstFit && !rep.Uniform {
				b.Fatalf("%s not uniform: %s", alg, rep.Why)
			}
			uniform := 0.0
			if rep.Uniform {
				uniform = 1.0
			}
			b.ReportMetric(uniform, "uniform")
			b.ReportMetric(float64(rep.TotalMoves), "moves")
			b.ReportMetric(float64(rep.Rounds), "rounds")
			b.ReportMetric(float64(rep.PeakWords), "memwords")
		})
	}
}

// BenchmarkEngineSteadyState measures end-to-end stepping cost of the
// incremental engine across ring sizes (k fixed at 100, round-robin):
// ns/step must stay flat as n grows. allocs/op here includes the O(n+k)
// engine construction each iteration; the allocation-free guarantee of
// the step loop itself is isolated by internal/sim's
// BenchmarkSteadyState, which excludes setup from the timed region. The
// paper's O(n)/O(n log k) time claims are only observable at these
// scales when simulator overhead is O(1) per action.
func BenchmarkEngineSteadyState(b *testing.B) {
	for _, nk := range [][2]int{{1000, 100}, {10000, 100}, {100000, 100}, {1000000, 10}} {
		n, k := nk[0], nk[1]
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			if n >= 1000000 && testing.Short() {
				b.Skip("million-node row skipped in -short mode")
			}
			homes, err := agentring.RandomHomes(n, k, int64(n))
			if err != nil {
				b.Fatal(err)
			}
			var rep agentring.Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = agentring.Run(agentring.Native, agentring.Config{N: n, Homes: homes})
				if err != nil {
					b.Fatal(err)
				}
			}
			if !rep.Uniform {
				b.Fatal("not uniform")
			}
			b.ReportMetric(float64(rep.Steps), "steps/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rep.Steps), "ns/step")
		})
	}
}

// BenchmarkRunBatch measures the batched sweep entry point: many
// independent runs over a bounded worker pool, the "millions of runs"
// workload shape. runs/sec is the headline number.
func BenchmarkRunBatch(b *testing.B) {
	const jobs = 64
	mkJobs := func(b *testing.B) []agentring.Job {
		out := make([]agentring.Job, jobs)
		for i := range out {
			homes, err := agentring.RandomHomes(128, 16, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			out[i] = agentring.Job{
				Algorithm: agentring.LogSpace,
				Config:    agentring.Config{N: 128, Homes: homes},
			}
		}
		return out
	}
	for _, workers := range []int{1, 0} { // 0 = all cores
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			js := mkJobs(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := agentring.RunBatch(context.Background(), js, agentring.BatchOptions{Workers: workers})
				for _, res := range results {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (atomic
// actions per second) to contextualize the other numbers.
func BenchmarkEngineThroughput(b *testing.B) {
	homes, err := agentring.RandomHomes(512, 32, 5)
	if err != nil {
		b.Fatal(err)
	}
	var rep agentring.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = agentring.Run(agentring.Native, agentring.Config{N: 512, Homes: homes})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Steps), "steps/run")
}

// BenchmarkExploreParallel measures the model checker's throughput on
// a fixed heavy placement (native algorithm, n=8, four clustered
// agents: 1693 states), plus one deeper n=7 five-agent placement where
// schedules run long enough that the checkpoint search's one applied
// action per expansion separates clearly from the old O(depth)
// replay-from-root, and one LogSpace placement (n=6, five clustered
// agents: 6796 states) whose message-driven frames — leaders waking
// suspended followers — go through the same checkpoint search. A search
// runs on one goroutine, so each row is named workers=1; parallelism
// lives in the placements of a sweep (experiments.ExploreAllStream),
// which bench's explore.speedup_w2 measures. Three metrics feed the
// benchdiff gate: ns/state and allocs/state (lower is better —
// allocs/state is what keeps the recycled branches honest), and
// speedup, which is 1 by construction and kept so the rows' gated
// metrics stay as the baseline records them. states/sec stays the
// human-facing rate.
func BenchmarkExploreParallel(b *testing.B) {
	cases := []struct {
		name string
		alg  agentring.Algorithm
		cfg  agentring.Config
	}{
		{"n8", agentring.Native, agentring.Config{N: 8, Homes: []int{0, 1, 2, 3}}},
		{"deep-n7", agentring.Native, agentring.Config{N: 7, Homes: []int{0, 1, 2, 3, 4}}},
		{"logspace-n6", agentring.LogSpace, agentring.Config{N: 6, Homes: []int{0, 1, 2, 3, 4}}},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/workers=1", func(b *testing.B) {
			var rep agentring.ExploreReport
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := agentring.Explore(context.Background(), tc.alg, tc.cfg, agentring.ExploreOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Complete || r.Counterexample != nil {
					b.Fatalf("bad search: %+v", r)
				}
				rep = r
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			states := float64(rep.States) * float64(b.N)
			b.ReportMetric(states/b.Elapsed().Seconds(), "states/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/states, "ns/state")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/states, "allocs/state")
			b.ReportMetric(1, "speedup")
		})
	}
}
