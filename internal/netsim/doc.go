// Package netsim is a second, independently built runtime for the
// paper's model: a truly concurrent message-passing substrate in which
// mobile agents are what they are in practice — messages.
//
// Each ring node runs as its own goroutine; each unidirectional link is
// a FIFO Go channel. An agent is the saved state of its algorithm's
// resumable frame (sim.FrameSaver's words) and migrates from node to
// node inside an envelope, the "agents are implemented as messages"
// realization the paper's model section appeals to. The node an agent
// reaches rebuilds a fresh frame from those words, runs one Step
// against a node-local sim.API, and saves the words again, so every
// step round-trips the agent through SaveState/LoadState. A node
// executes one agent step at a time (the model's atomic action), so
// per-node serialization plus FIFO links gives the Section 2 semantics
// while nodes genuinely run in parallel.
//
// # Quiescence detection
//
// Quiescence (all agents halted or waiting, no envelope in flight) is
// detected with a credit-counting scheme in the Dijkstra–Scholten
// style: every agent arrival increments a global counter before it is
// enqueued and decrements it after it, and the wakes it causes, are
// fully processed, so the counter reaches zero exactly at global
// quiescence.
//
// # Role: cross-validation
//
// netsim exists to cross-validate internal/sim. The algorithm code is
// shared — both runtimes step the same internal/core frames — but the
// runtime is independent: per-node goroutines, channel FIFOs and credit
// counting instead of the engine's scheduler and agent tables. The
// deployment algorithms are deterministic functions of the token
// geometry, so both runtimes must produce the same final positions
// despite completely different concurrency structures
// (crossvalidate_test.go sweeps placements against the engine running
// each algorithm's coroutine Program.Run, the reference semantics). It
// deliberately supports neither alternative topologies nor fault
// schedules — it is the ring-only referee, and the public RunConcurrent
// rejects configurations it cannot express.
package netsim
