package agentring

import (
	"errors"
	"fmt"
	"time"

	"agentring/internal/netsim"
)

// DefaultConcurrentTimeout is the wall-clock bound RunConcurrent applies
// when Config.Timeout is zero.
const DefaultConcurrentTimeout = 2 * time.Minute

// RunConcurrent executes the chosen algorithm on the message-passing
// substrate (internal/netsim): every ring node is its own goroutine,
// links are FIFO channels, and agents migrate as their frames' saved
// state words — the "agents are implemented as messages" realization
// the paper's model section appeals to. The substrate steps the same
// frames Run does, rebuilding each agent's frame from its words at
// every node it reaches.
//
// Unlike Run, executions are truly parallel and the interleaving is
// whatever the Go scheduler produces; the returned Report therefore
// omits the scheduler-dependent measures: Rounds, Steps, message counts
// and memory. Final positions are still deterministic for Native and
// Relaxed (pure functions of the token geometry); for LogSpace the
// target-node *set* is deterministic while the per-agent assignment may
// vary. Supported algorithms: Native, LogSpace, Relaxed.
func RunConcurrent(alg Algorithm, cfg Config) (Report, error) {
	_, n, err := resolveTopology(cfg)
	if err != nil {
		return Report{}, err
	}
	if cfg.Topology != nil && cfg.Topology.Kind() != KindRing {
		return Report{}, fmt.Errorf("%w: the concurrent substrate is ring-only (got %s)", ErrConfig, cfg.Topology)
	}
	if len(cfg.Faults) > 0 {
		return Report{}, fmt.Errorf("%w: the concurrent substrate does not support fault schedules", ErrConfig)
	}
	switch alg {
	case Native, LogSpace, Relaxed:
	default:
		return Report{}, fmt.Errorf("%w: algorithm %s does not run on the concurrent substrate", ErrConfig, alg)
	}
	cfg.N = n
	programs, err := buildPrograms(alg, cfg, n, len(cfg.Homes))
	if err != nil {
		return Report{}, err
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultConcurrentTimeout
	}
	res, err := netsim.Run(n, cfg.Homes, programs, timeout)
	if errors.Is(err, netsim.ErrBadSetup) {
		return Report{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err != nil {
		return Report{}, fmt.Errorf("concurrent run: %w", err)
	}
	return buildReport(alg, cfg, res, nil), nil
}
