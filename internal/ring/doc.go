// Package ring models the static substrate of the paper's system model
// (Section 2.1): an anonymous, unidirectional ring R = (V, E) of n
// nodes. Token counts, agent positions, link FIFO queues, and
// mailboxes — the parts of a configuration that change — live in
// internal/sim, which drives this substrate.
//
// # Role in the topology layer
//
// *Ring is the canonical out-degree-1 instance of sim.Topology: node v
// has the single port 0 toward (v+1) mod n. Every other substrate
// (internal/topo, internal/embed) is measured against it, and the
// engine's arrival-rank ordering is defined so that on this ring it
// reproduces the pre-topology engine bit-for-bit (golden_test.go at the
// repo root pins that).
//
// # Invariants
//
// Nodes are ints in the canonical 0..n-1 numbering used across the
// whole module; agents never see them (the ring is anonymous), so the
// numbering exists only for the simulator and tests. Neighbor's single
// port wraps from v_{n-1} back to v_0
// (TestNextWrapsAround), and DistanceSequence implements the cyclic
// geometry the algorithms reason with: its gaps sum to n for any
// placement (TestDistanceSequenceSumsToN). Tokens are indelible engine
// state; the sim package's Auditor checks that counts never decrease.
package ring
