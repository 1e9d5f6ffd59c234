package experiments

import (
	"fmt"
	"math"

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

// Spec is one placement: K agents on an N-node substrate, placed by a
// workload generator. It is the typed form the job compiler
// (internal/jobs) uses for every cell whose spec names no explicit
// homes.
type Spec struct {
	N, K     int
	Workload WorkloadKind
	Degree   int   // symmetry degree for WorkloadPeriodic
	Seed     int64 // workload seed
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

// Config materializes the placement as a run configuration on the
// default N-node ring, seeded with Seed.
func (s Spec) Config() (agentring.Config, error) {
	homes, err := s.Homes()
	if err != nil {
		return agentring.Config{}, err
	}
	return agentring.Config{N: s.N, Homes: homes, Seed: s.Seed}, nil
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
	return num / math.Sqrt(dx2*dy2), nil
}
