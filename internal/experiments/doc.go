// Package experiments holds the pieces of the paper's experiments that
// are not a job: placements, fault plans, names, exhaustive placement
// sweeps and the shape-checking statistics. Runs and sweeps themselves
// are job specs, compiled and executed by internal/jobs, which every
// CLI and the daemon share; this package no longer runs batches.
//
// # Contents
//
//   - Spec / Homes: one workload placement (random, clustered, uniform,
//     periodic) of K agents on N nodes. The job compiler places every
//     cell without explicit homes through it.
//   - The name tables (ParseAlgorithm, ParseScheduler, ParseWorkload):
//     the strings the CLIs and job specs name algorithms, schedulers and
//     workloads by.
//   - ResolveFaults (dynring.go): the DynRing fault plans (transient,
//     churn, permanent) scaled to a substrate size, or a raw
//     agentring.ParseFaults schedule.
//   - AllPlacements / ExploreAllStream: exhaustive schedule-space
//     sweeps over every initial placement, enumerated by one bitmask
//     loop and deduplicated up to rotation exactly when that is sound,
//     explored several at a time on the module's one batch pool
//     (internal/pool) and streamed one row per placement in placement
//     order (cmd/explore -all). FormatExploreRows renders them.
//   - Correlation: the helper the shape tests use to check that
//     measured complexities grow as Table 1 predicts, rather than
//     asserting constants; BarChart draws the sweep CLI's moves chart.
//
// The Table 1 claims are pinned by this package's tests, which run job
// specs: O(n) time for Algorithm 1, O(n log k) for Algorithms 2+3, the
// relaxed algorithm's 1/l adaptivity, and the Theorem 1 kn/16 floor.
package experiments
