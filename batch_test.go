package agentring_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"agentring"
)

func batchJobs(t *testing.T, count int) []agentring.Job {
	t.Helper()
	jobs := make([]agentring.Job, count)
	for i := range jobs {
		n := 24 + 12*(i%5)
		homes, err := agentring.RandomHomes(n, 6, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = agentring.Job{
			Algorithm: agentring.LogSpace,
			Config:    agentring.Config{N: n, Homes: homes},
		}
	}
	return jobs
}

func TestRunBatchMatchesSequentialRuns(t *testing.T) {
	jobs := batchJobs(t, 40)
	results := agentring.RunBatch(context.Background(), jobs, agentring.BatchOptions{Workers: 4})
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		want, err := agentring.Run(jobs[i].Algorithm, jobs[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Report.Positions, want.Positions) {
			t.Errorf("job %d positions %v != sequential %v", i, res.Report.Positions, want.Positions)
		}
		if res.Report.Steps != want.Steps {
			t.Errorf("job %d steps %d != sequential %d", i, res.Report.Steps, want.Steps)
		}
		if !reflect.DeepEqual(res.Job, jobs[i]) {
			t.Errorf("job %d result misordered: %+v", i, res.Job)
		}
	}
}

func TestRunBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := batchJobs(t, 25)
	one := agentring.RunBatch(context.Background(), jobs, agentring.BatchOptions{Workers: 1})
	many := agentring.RunBatch(context.Background(), jobs, agentring.BatchOptions{Workers: 8})
	for i := range jobs {
		if !reflect.DeepEqual(one[i].Report.Positions, many[i].Report.Positions) {
			t.Errorf("job %d: workers=1 %v, workers=8 %v",
				i, one[i].Report.Positions, many[i].Report.Positions)
		}
	}
}

func TestRunBatchIsolatesFailures(t *testing.T) {
	jobs := batchJobs(t, 3)
	jobs[1].Config.N = -1 // invalid; must fail alone
	results := agentring.RunBatch(context.Background(), jobs, agentring.BatchOptions{})
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, agentring.ErrConfig) {
		t.Errorf("bad job error = %v, want ErrConfig", results[1].Err)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	if got := agentring.RunBatch(context.Background(), nil, agentring.BatchOptions{}); len(got) != 0 {
		t.Errorf("RunBatch(nil) = %v", got)
	}
}

// TestRunBatchContextCancel cancels a two-worker batch from OnResult
// after job 0: only runs already in flight finish, at most one per
// worker, and every later job is skipped with the context error. Jobs
// past 0 wait at their first trace event until the cancel, so no worker
// can run ahead of it.
func TestRunBatchContextCancel(t *testing.T) {
	const workers = 2
	jobs := batchJobs(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 1; i < len(jobs); i++ {
		jobs[i].Config.TraceSink = agentring.TraceFunc(func(agentring.TraceEvent) {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				t.Errorf("job %d ran without the cancel", i)
			}
		})
	}
	results := agentring.RunBatch(ctx, jobs, agentring.BatchOptions{
		Workers: workers,
		OnResult: func(i int, r agentring.JobResult) {
			// Cancel once job 0 is reported: later jobs must be
			// skipped with the context error instead of running.
			if i == 0 {
				cancel()
			}
		},
	})
	var ran, skipped int
	for i, res := range results {
		switch {
		case res.Err == nil:
			ran++
		case errors.Is(res.Err, context.Canceled):
			skipped++
		default:
			t.Fatalf("job %d: unexpected error %v", i, res.Err)
		}
	}
	if ran == 0 || ran > workers {
		t.Errorf("%d jobs ran, want 1..%d (job 0 and those in flight at the cancel)", ran, workers)
	}
	if skipped != len(jobs)-ran {
		t.Errorf("%d jobs skipped, want the other %d", skipped, len(jobs)-ran)
	}
}

func TestRunBatchPreCancelledSkipsEverything(t *testing.T) {
	jobs := batchJobs(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range agentring.RunBatch(ctx, jobs, agentring.BatchOptions{}) {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("job %d err = %v, want context.Canceled", i, res.Err)
		}
	}
}

// TestRunBatchOnResultStreamsEveryJob: OnResult sees every job once, in
// input order and one call at a time (the callback takes no lock, so
// -race catches an overlap), with the result RunBatch returns for it.
func TestRunBatchOnResultStreamsEveryJob(t *testing.T) {
	jobs := batchJobs(t, 12)
	var seen []agentring.JobResult
	results := agentring.RunBatch(context.Background(), jobs, agentring.BatchOptions{
		Workers: 4,
		OnResult: func(i int, r agentring.JobResult) {
			if i != len(seen) {
				t.Errorf("OnResult got job %d after %d jobs", i, len(seen))
			}
			seen = append(seen, r)
		},
	})
	if len(seen) != len(jobs) {
		t.Fatalf("OnResult fired for %d jobs, want %d", len(seen), len(jobs))
	}
	for i := range jobs {
		if !reflect.DeepEqual(seen[i].Report.Positions, results[i].Report.Positions) {
			t.Errorf("job %d: streamed positions %v != returned %v",
				i, seen[i].Report.Positions, results[i].Report.Positions)
		}
	}
}

func TestConcurrentTimeoutConfigurable(t *testing.T) {
	homes, err := agentring.UniformHomes(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A 1ns budget must trip the netsim deadline, proving Config.Timeout
	// reaches the substrate.
	_, err = agentring.RunConcurrent(agentring.Native, agentring.Config{
		N: 12, Homes: homes, Timeout: 1,
	})
	if err == nil {
		t.Fatal("1ns timeout did not fail the run")
	}
}
