package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"agentring"
)

// WorkloadKind names an initial-configuration generator.
type WorkloadKind string

// Workload kinds.
const (
	WorkloadRandom    WorkloadKind = "random"
	WorkloadClustered WorkloadKind = "clustered"
	WorkloadUniform   WorkloadKind = "uniform"
	WorkloadPeriodic  WorkloadKind = "periodic"
)

// The names the CLIs and job specs give algorithms, schedulers and
// workloads, one table each. An empty scheduler or workload name
// selects the default, and "sync" is short for "synchronous".
var (
	algorithmNames = map[string]agentring.Algorithm{
		"native":   agentring.Native,
		"native-n": agentring.NativeKnowN,
		"logspace": agentring.LogSpace,
		"relaxed":  agentring.Relaxed,
		"naive":    agentring.NaiveHalting,
		"firstfit": agentring.FirstFit,
		"binative": agentring.BiNative,
	}
	schedulerNames = map[string]agentring.SchedulerKind{
		"":            agentring.RoundRobin,
		"roundrobin":  agentring.RoundRobin,
		"random":      agentring.RandomSched,
		"synchronous": agentring.Synchronous,
		"sync":        agentring.Synchronous,
		"adversarial": agentring.Adversarial,
	}
	workloadNames = map[string]WorkloadKind{
		"":          WorkloadRandom,
		"random":    WorkloadRandom,
		"clustered": WorkloadClustered,
		"uniform":   WorkloadUniform,
		"periodic":  WorkloadPeriodic,
	}
)

// ParseAlgorithm resolves an algorithm name.
func ParseAlgorithm(name string) (agentring.Algorithm, error) {
	return lookup(algorithmNames, "algorithm", name)
}

// ParseScheduler resolves a scheduler name.
func ParseScheduler(name string) (agentring.SchedulerKind, error) {
	return lookup(schedulerNames, "scheduler", name)
}

// ParseWorkload resolves a workload name.
func ParseWorkload(name string) (WorkloadKind, error) {
	return lookup(workloadNames, "workload", name)
}

// lookup resolves name in table, saying what it looked up on a miss.
func lookup[T any](table map[string]T, what, name string) (T, error) {
	v, ok := table[name]
	if !ok {
		return v, fmt.Errorf("unknown %s %q", what, name)
	}
	return v, nil
}

// Spec describes one experimental run.
type Spec struct {
	Algorithm agentring.Algorithm
	N, K      int
	Workload  WorkloadKind
	Degree    int   // symmetry degree for WorkloadPeriodic
	Seed      int64 // workload + scheduler seed
	Scheduler agentring.SchedulerKind
	// Topology is an agentring.ParseTopology spec selecting the
	// substrate ("", "ring" = the default N-node unidirectional ring;
	// "biring", "torus=RxC", "tree=<edges>"). For fixed-size specs
	// (torus, tree) N must equal the substrate size.
	Topology string
	// Faults makes the substrate dynamic: a named DynRing plan
	// (transient | churn | permanent, resolved against the substrate
	// size by ResolveFaults) or a raw agentring.ParseFaults spec. Empty
	// means the static topology.
	Faults string
}

// Row is one measured table row.
type Row struct {
	Spec
	SymmetryDegree int
	Uniform        bool
	TotalMoves     int
	MaxMoves       int
	Rounds         int
	PeakWords      int
	PeakBits       int
	Messages       int
}

// Homes materializes the Spec's initial configuration.
func (s Spec) Homes() ([]int, error) {
	switch s.Workload {
	case WorkloadRandom:
		return agentring.RandomHomes(s.N, s.K, s.Seed)
	case WorkloadClustered:
		return agentring.ClusteredHomes(s.N, s.K)
	case WorkloadUniform:
		return agentring.UniformHomes(s.N, s.K)
	case WorkloadPeriodic:
		return agentring.PeriodicHomes(s.N, s.K, s.Degree, s.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", s.Workload)
	}
}

// Config materializes the Spec's agentring configuration (homes
// included), ready for Run or RunBatch.
func (s Spec) Config() (agentring.Config, error) {
	homes, err := s.Homes()
	if err != nil {
		return agentring.Config{}, err
	}
	cfg := agentring.Config{
		N:         s.N,
		Homes:     homes,
		Scheduler: s.Scheduler,
		Seed:      s.Seed,
	}
	if s.Topology != "" && s.Topology != "ring" {
		topo, err := agentring.ParseTopology(s.Topology, s.N)
		if err != nil {
			return agentring.Config{}, err
		}
		cfg.Topology = topo
	}
	if s.Faults != "" {
		size := cfg.N
		if cfg.Topology != nil {
			size = cfg.Topology.Size()
		}
		faults, err := ResolveFaults(s.Faults, size)
		if err != nil {
			return agentring.Config{}, err
		}
		cfg.Faults = faults
	}
	return cfg, nil
}

func rowFrom(spec Spec, rep agentring.Report) Row {
	return Row{
		Spec:           spec,
		SymmetryDegree: rep.SymmetryDegree,
		Uniform:        rep.Uniform,
		TotalMoves:     rep.TotalMoves,
		MaxMoves:       rep.MaxMoves,
		Rounds:         rep.Rounds,
		PeakWords:      rep.PeakWords,
		PeakBits:       rep.PeakBits,
		Messages:       rep.MessagesSent,
	}
}

// Run executes the spec once and returns the measured row.
func Run(spec Spec) (Row, error) {
	cfg, err := spec.Config()
	if err != nil {
		return Row{}, err
	}
	rep, err := agentring.Run(spec.Algorithm, cfg)
	if err != nil {
		return Row{}, fmt.Errorf("run %s n=%d k=%d: %w", spec.Algorithm, spec.N, spec.K, err)
	}
	return rowFrom(spec, rep), nil
}

// RunAll executes the specs across agentring.RunBatch's bounded worker
// pool and returns their rows in input order. workers <= 0 selects the
// batch default (GOMAXPROCS). The first failed spec is reported as the
// error, after every spec has run. Cancelling ctx stops the sweep
// between runs (RunBatch semantics); nil ctx means Background.
func RunAll(ctx context.Context, specs []Spec, workers int) ([]Row, error) {
	return RunAllStream(ctx, specs, workers, nil)
}

// RunAllStream is RunAll with ordered streaming: every successful row
// is additionally handed to emit as soon as it and all earlier rows
// have completed, so a consumer (the sweep CLI's NDJSON mode) sees
// rows trickle out in grid order while the batch is still running,
// instead of waiting for the whole sweep. emit is called from a worker
// goroutine but never concurrently; nil emit degrades to RunAll.
func RunAllStream(ctx context.Context, specs []Spec, workers int, emit func(Row)) ([]Row, error) {
	jobs := make([]agentring.Job, len(specs))
	for i, spec := range specs {
		cfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		jobs[i] = agentring.Job{Algorithm: spec.Algorithm, Config: cfg}
	}
	opts := agentring.BatchOptions{Workers: workers}
	if emit != nil {
		var (
			mu      sync.Mutex
			pending = make([]Row, len(specs))
			done    = make([]bool, len(specs))
			ok      = make([]bool, len(specs))
			next    int
		)
		opts.OnResult = func(i int, res agentring.JobResult) {
			mu.Lock()
			defer mu.Unlock()
			if res.Err == nil {
				pending[i] = rowFrom(specs[i], res.Report)
				ok[i] = true
			}
			done[i] = true
			// Flush the completed prefix: rows stream strictly in input
			// order, failed specs yield no row (the error surfaces below).
			for next < len(specs) && done[next] {
				if ok[next] {
					emit(pending[next])
				}
				next++
			}
		}
	}
	results := agentring.RunBatch(ctx, jobs, opts)
	rows := make([]Row, len(specs))
	var firstErr error
	for i, res := range results {
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("run %s n=%d k=%d: %w",
					specs[i].Algorithm, specs[i].N, specs[i].K, res.Err)
			}
			continue
		}
		rows[i] = rowFrom(specs[i], res.Report)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rows, nil
}

// Table1Specs enumerates the grid Table1Sweep measures.
func Table1Specs(alg agentring.Algorithm, ns, ks []int, seed int64) []Spec {
	var specs []Spec
	for _, n := range ns {
		for _, k := range ks {
			if k > n/2 { // keep configurations scatterable
				continue
			}
			specs = append(specs, Spec{
				Algorithm: alg,
				N:         n,
				K:         k,
				Workload:  WorkloadRandom,
				Seed:      seed + int64(n*1000+k),
				Scheduler: agentring.Synchronous,
			})
		}
	}
	return specs
}

// Table1Sweep measures one algorithm across a grid of (n, k) pairs with
// the synchronous scheduler (so Rounds is the paper's ideal time). This
// regenerates the corresponding column of Table 1 empirically. Runs
// execute batched across all cores.
func Table1Sweep(alg agentring.Algorithm, ns, ks []int, seed int64) ([]Row, error) {
	return RunAll(context.Background(), Table1Specs(alg, ns, ks, seed), 0)
}

// DegreeSpecs enumerates the symmetry-degree sweep DegreeSweep measures.
func DegreeSpecs(n, k int, degrees []int, seed int64) []Spec {
	specs := make([]Spec, len(degrees))
	for i, l := range degrees {
		specs[i] = Spec{
			Algorithm: agentring.Relaxed,
			N:         n,
			K:         k,
			Workload:  WorkloadPeriodic,
			Degree:    l,
			Seed:      seed,
			Scheduler: agentring.Synchronous,
		}
	}
	return specs
}

// DegreeSweep measures the relaxed algorithm across symmetry degrees
// for a fixed (n, k), regenerating Table 1 column 4's l-dependence.
// Runs execute batched across all cores.
func DegreeSweep(n, k int, degrees []int, seed int64) ([]Row, error) {
	return RunAll(context.Background(), DegreeSpecs(n, k, degrees, seed), 0)
}

// LowerBound runs the Fig 3 clustered configuration and returns the
// measured total moves together with the theorem's kn/16 floor.
func LowerBound(alg agentring.Algorithm, n, k int) (moves int, floor int, err error) {
	row, err := Run(Spec{
		Algorithm: alg,
		N:         n,
		K:         k,
		Workload:  WorkloadClustered,
		Scheduler: agentring.Synchronous,
	})
	if err != nil {
		return 0, 0, err
	}
	if !row.Uniform {
		return 0, 0, fmt.Errorf("lower-bound run not uniform")
	}
	return row.TotalMoves, k * n / 16, nil
}

// FormatRows renders rows as an aligned text table.
func FormatRows(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %5s %10s %4s %3s %9s %9s %7s %7s %6s %8s\n",
		"algorithm", "n", "k", "workload", "l", "ok", "moves", "max/agent", "rounds", "words", "bits", "messages")
	for _, r := range rows {
		ok := "yes"
		if !r.Uniform {
			ok = "NO"
		}
		wl := string(r.Workload)
		if r.Workload == WorkloadPeriodic {
			wl = fmt.Sprintf("periodic/%d", r.Degree)
		}
		fmt.Fprintf(&b, "%-12s %6d %5d %10s %4d %3s %9d %9d %7d %7d %6d %8d\n",
			r.Algorithm, r.N, r.K, wl, r.SymmetryDegree, ok,
			r.TotalMoves, r.MaxMoves, r.Rounds, r.PeakWords, r.PeakBits, r.Messages)
	}
	return b.String()
}

// FitLinear returns the least-squares slope and intercept of y against
// x — used to check that measured complexities grow with the predicted
// shape (e.g. total moves against k*n should be near-linear).
func FitLinear(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, fmt.Errorf("experiments: need >= 2 paired samples")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	nf := float64(len(xs))
	den := nf*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("experiments: degenerate x values")
	}
	slope = (nf*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / nf
	return slope, intercept, nil
}

// Correlation returns the Pearson correlation coefficient between xs
// and ys.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("experiments: need >= 2 paired samples")
	}
	nf := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/nf, sy/nf
	var num, dx2, dy2 float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		num += dx * dy
		dx2 += dx * dx
		dy2 += dy * dy
	}
	if dx2 == 0 || dy2 == 0 {
		return 0, fmt.Errorf("experiments: zero variance")
	}
	return num / sqrt(dx2*dy2), nil
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 64; i++ {
		x = (x + v/x) / 2
	}
	return x
}
