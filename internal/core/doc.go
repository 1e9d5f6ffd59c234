// Package core implements the paper's uniform-deployment algorithms
// for asynchronous unidirectional rings:
//
//   - Algorithm 1 (Section 3.1): agents with knowledge of k (or n),
//     termination detection, O(k log n) memory, O(n) time, O(kn) moves.
//   - Algorithms 2+3 (Section 3.2): agents with knowledge of k,
//     termination detection, O(log n) memory, O(n log k) time, O(kn)
//     moves, via cooperative base-node selection.
//   - Algorithms 4–6 (Section 4.2): agents with no knowledge of k or n,
//     relaxed uniform deployment without termination detection,
//     O((k/l) log(n/l)) memory, O(n/l) time, O(kn/l) moves for symmetry
//     degree l.
//
// It also provides NaiveEstimator, a deliberately unsound
// estimate-then-halt algorithm used to replay the Theorem 5
// impossibility construction empirically, and BiNative, the
// bidirectional-ring variant of Algorithm 1 whose deployment phase
// takes the shorter way around (final positions provably equal
// Native's; audit_test.go and the root tree_crossvalidate tests pin
// the equivalences).
//
// Each algorithm exists here in one form, a sim.Frame: a resumable
// state machine stepped once per atomic action, whose comments name the
// paper's phases, lines and lemmas at the steps that implement them.
// The same algorithms written as the paper's sequential pseudocode live
// in internal/reference, which only tests import; the cross-checks hold
// every frame to them.
//
// # Invariants
//
// All programs are anonymous: they never see node or agent identifiers,
// only tokens, co-located agents, and messages, exactly as the model
// allows. They interact with the world solely through sim.API and
// account their live state through sim.API's Meter, so the memory
// claims of Table 1 are measured, not asserted (alg2_stats_test.go,
// matrix_test.go). The paper's algorithms move only via port 0 (an
// ActionMove with the zero Port), which is what lets them run unchanged
// on every shipped substrate — including dynamic rings, where a failed
// link merely delays a move the asynchronous model already allows to be
// arbitrarily slow. exhaustive_test.go checks every small-ring
// placement; internal/explore re-checks them against every schedule.
package core
