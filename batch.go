package agentring

import (
	"context"
	"runtime"

	"agentring/internal/pool"
)

// Job pairs an algorithm with one run configuration inside a batch.
type Job struct {
	Algorithm Algorithm
	Config    Config
}

// JobResult is the outcome of one batch job. Exactly one of Report or
// Err is meaningful: Err mirrors what Run would have returned for the
// same job, and a failed job never aborts the rest of the batch. A job
// skipped because the batch context was cancelled carries the
// context's error.
type JobResult struct {
	Job    Job
	Report Report
	Err    error
}

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Workers bounds the number of concurrently executing runs. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
	// OnResult, if non-nil, is invoked once per job before RunBatch
	// returns — the streaming view of the batch, used for live
	// progress. Calls come in input order, as soon as a job and every
	// job before it have finished, and never concurrently; i is the
	// job's input index, identical to its slot in the returned slice.
	// Skipped (cancelled) jobs are reported through OnResult too.
	OnResult func(i int, r JobResult)
}

// RunBatch executes many independent runs across a bounded worker pool
// and returns their results in input order: results[i] is always jobs[i],
// regardless of which worker ran it or when it finished. Each run is as
// deterministic as Run itself, so a batch is reproducible end to end.
//
// Cancelling ctx stops the batch: no further job starts, and every job
// not yet started gets the context's error as its JobResult.Err.
// Cancellation is checked between jobs — a run already executing
// finishes normally (individual runs are bounded by Config.MaxSteps,
// not wall-clock time), so the latency of a cancel is one in-flight run
// per worker. A nil ctx is treated as context.Background().
//
// This is the bulk entry point for parameter sweeps and Monte Carlo
// workloads: millions of small rings, or thousands of large ones, with
// the pool keeping every core busy while results stay addressable.
func RunBatch(ctx context.Context, jobs []Job, opts BatchOptions) []JobResult {
	results := make([]JobResult, len(jobs))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// No task fails: a failed or skipped job is a result, not a stop.
	pool.Run(ctx, len(jobs), workers, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			results[i] = JobResult{Job: jobs[i], Err: err}
		} else {
			rep, err := Run(jobs[i].Algorithm, jobs[i].Config)
			results[i] = JobResult{Job: jobs[i], Report: rep, Err: err}
		}
		return nil
	}, func(i int) {
		if opts.OnResult != nil {
			opts.OnResult(i, results[i])
		}
	})
	return results
}
