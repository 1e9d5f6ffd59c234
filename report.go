package agentring

import (
	"fmt"
	"math/rand"
	"strings"

	"agentring/internal/memmeter"
	"agentring/internal/ring"
	"agentring/internal/seq"
	"agentring/internal/sim"
	"agentring/internal/verify"
	"agentring/internal/workload"
)

// AgentOutcome is the per-agent view of a finished run.
type AgentOutcome struct {
	// Home and Node are the agent's initial and final nodes.
	Home, Node int
	// Moves counts its link traversals.
	Moves int
	// PeakWords is the largest number of memory words it held at once.
	PeakWords int
	// Halted is true if the agent terminated (Definition 1); Suspended
	// is true if it ended waiting for messages (Definition 2).
	Halted, Suspended bool
}

// Report is the outcome of one Run.
type Report struct {
	// Algorithm and configuration echo. Topology names the substrate
	// the run executed on ("ring(36)", "biring(36)", "torus(4x8)",
	// "tree(9 nodes, euler ring 16)").
	Algorithm Algorithm
	Topology  string
	N, K      int
	// SymmetryDegree is the l of the *initial* configuration.
	SymmetryDegree int

	// Uniform reports whether the final positions satisfy the uniform
	// deployment condition; Why is empty when Uniform, else the reason.
	Uniform bool
	Why     string
	// Definition1 / Definition2 report whether the run additionally
	// satisfies the respective termination shape of the paper.
	Definition1, Definition2 bool

	// Positions are the final agent nodes (indexed like Config.Homes);
	// Gaps are the sorted cyclic gaps between them.
	Positions []int
	Gaps      []int

	// Complexity measurements.
	TotalMoves        int
	MaxMoves          int
	Rounds            int // ideal time; only set by the Synchronous scheduler
	Steps             int // atomic actions executed
	MessagesSent      int
	MessagesDelivered int
	PeakWords         int // max over agents
	PeakBits          int // PeakWords x ceil(log2 n)
	// Epoch counts the effective link mutations Config.Faults applied
	// during the run (a no-op event — repairing an up link — does not
	// count). Zero means the topology stayed static.
	Epoch int

	// Agents holds the per-agent outcomes.
	Agents []AgentOutcome

	// Trace is the recorded execution trace when Config.TraceCapacity
	// was positive.
	Trace string
}

// topologyName names a Config's substrate for report echoes.
func topologyName(cfg Config) string {
	if cfg.Topology != nil {
		return cfg.Topology.String()
	}
	return fmt.Sprintf("ring(%d)", cfg.N)
}

// Summary renders a one-paragraph human-readable account of the run.
func (r Report) Summary() string {
	var b strings.Builder
	where := fmt.Sprintf("n=%d", r.N)
	if r.Topology != "" && !strings.HasPrefix(r.Topology, "ring(") {
		where = r.Topology
	}
	fmt.Fprintf(&b, "%s on %s k=%d (symmetry degree %d): ", r.Algorithm, where, r.K, r.SymmetryDegree)
	if r.Uniform {
		fmt.Fprintf(&b, "uniform deployment reached (gaps %v). ", r.Gaps)
	} else {
		fmt.Fprintf(&b, "NOT uniform: %s. ", r.Why)
	}
	fmt.Fprintf(&b, "total moves %d, max per agent %d", r.TotalMoves, r.MaxMoves)
	if r.Rounds > 0 {
		fmt.Fprintf(&b, ", ideal time %d rounds", r.Rounds)
	}
	fmt.Fprintf(&b, ", peak memory %d words (%d bits), %d messages.",
		r.PeakWords, r.PeakBits, r.MessagesSent)
	return b.String()
}

func buildReport(alg Algorithm, cfg Config, res sim.Result, trace *sim.Trace) Report {
	rep := Report{
		Algorithm:         alg,
		Topology:          topologyName(cfg),
		N:                 cfg.N,
		K:                 len(cfg.Homes),
		TotalMoves:        res.TotalMoves,
		MaxMoves:          res.MaxMoves(),
		Rounds:            res.Rounds,
		Steps:             res.Steps,
		MessagesSent:      res.MessagesSent,
		MessagesDelivered: res.MessagesDelivered,
		PeakWords:         res.MaxPeakWords(),
		PeakBits:          res.MaxPeakWords() * memmeter.BitsPerWord(cfg.N),
		Epoch:             res.Epoch,
	}
	if gaps, err := ring.DistanceSequence(cfg.N, cfg.Homes); err == nil {
		rep.SymmetryDegree = seq.SymmetryDegree(gaps)
	}
	rep.Positions = res.Positions()
	rep.Gaps = verify.Gaps(cfg.N, rep.Positions)
	rep.Why = verify.ExplainNonUniform(cfg.N, rep.Positions)
	rep.Uniform = rep.Why == ""
	rep.Definition1 = verify.CheckDefinition1(cfg.N, res) == nil
	rep.Definition2 = verify.CheckDefinition2(cfg.N, res) == nil
	rep.Agents = make([]AgentOutcome, len(res.Agents))
	for i, a := range res.Agents {
		rep.Agents[i] = AgentOutcome{
			Home:      a.Home,
			Node:      a.Node,
			Moves:     a.Moves,
			PeakWords: a.PeakWords,
			Halted:    a.Status == sim.StatusHalted,
			Suspended: a.Status == sim.StatusWaiting,
		}
	}
	if trace != nil {
		rep.Trace = trace.String()
	}
	return rep
}

// IsUniform reports whether the given positions are uniformly deployed
// on an n-ring (exported convenience over the internal checker).
func IsUniform(n int, positions []int) bool {
	return verify.ExplainNonUniform(n, positions) == ""
}

// SymmetryDegree returns the symmetry degree l of an initial placement:
// the number of times its distance sequence repeats an aperiodic
// pattern (1 = asymmetric, k = already uniform with n ≡ 0 mod k).
func SymmetryDegree(n int, homes []int) (int, error) {
	gaps, err := ring.DistanceSequence(n, homes)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return seq.SymmetryDegree(gaps), nil
}

// RandomHomes places k agents on distinct uniformly random nodes.
func RandomHomes(n, k int, seed int64) ([]int, error) {
	homes, err := workload.Random(n, k, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return homes, nil
}

// ClusteredHomes packs k agents contiguously from node 0 (the Fig 3
// lower-bound configuration).
func ClusteredHomes(n, k int) ([]int, error) {
	homes, err := workload.Clustered(n, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return homes, nil
}

// UniformHomes places k agents already uniformly.
func UniformHomes(n, k int) ([]int, error) {
	homes, err := workload.Uniform(n, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return homes, nil
}

// PeriodicHomes builds an initial configuration with symmetry degree
// exactly l (requires l | k and l | n).
func PeriodicHomes(n, k, l int, seed int64) ([]int, error) {
	homes, err := workload.PeriodicWithDegree(n, k, l, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return homes, nil
}

// PumpedHomes builds the Theorem 5 construction: the base placement
// repeated `copies` times followed by pad empty copies' worth of nodes.
// It returns the pumped ring size and homes.
func PumpedHomes(n int, homes []int, copies, pad int) (int, []int, error) {
	bigN, bigHomes, err := workload.Pumped(n, homes, copies, pad)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return bigN, bigHomes, nil
}
