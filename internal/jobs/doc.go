// Package jobs is the one description of work and the one executor
// under every CLI and the agentringd daemon. A Spec is the typed,
// JSON-serializable description of a single run, a sweep grid or a
// schedule-space exploration; Compile resolves its names into
// agentring configurations (substrate first, then placement, bounded in
// total size), and Run executes the resulting Plan on the module's one
// batch pool (internal/pool), streaming finished cells in grid order
// through its Hooks. A finished run is one CellResult row,
// whether it came from the daemon, `agentring submit -local` or the
// sweep CLI.
//
// The resident Engine adds a priority FIFO queue, per-job cancellation,
// progress counters, per-client quotas, max-queue-depth admission
// control, an event bus for live progress and trace streaming, and
// graceful drain; it keeps the last 1,024 finished jobs queryable and
// forgets the oldest-finished first. The package is deliberately
// transport-free: internal/rpc exposes the Engine over JSON-RPC 2.0,
// and the same Compile and Run serve in-process callers (Execute, the
// CLIs and the daemon-vs-direct equivalence tests), which is what makes
// a daemon job's result byte-identical to running the spec directly.
package jobs
