package agentring_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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

func TestSweepOrdersByConfig(t *testing.T) {
	var cfgs []agentring.Config
	for _, n := range []int{16, 24, 32} {
		homes, err := agentring.UniformHomes(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, agentring.Config{N: n, Homes: homes})
	}
	results := agentring.Sweep(context.Background(), agentring.Native, cfgs, agentring.BatchOptions{Workers: 2})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("sweep %d: %v", i, res.Err)
		}
		if res.Job.Config.N != cfgs[i].N {
			t.Errorf("result %d is for n=%d, want n=%d", i, res.Job.Config.N, cfgs[i].N)
		}
		if !res.Report.Uniform {
			t.Errorf("n=%d not uniform: %s", res.Job.Config.N, res.Report.Why)
		}
	}
}

func TestRunBatchContextCancel(t *testing.T) {
	jobs := batchJobs(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	results := agentring.RunBatch(ctx, jobs, agentring.BatchOptions{
		Workers: 2,
		OnResult: func(i int, r agentring.JobResult) {
			// Cancel after the first completion: later jobs must be
			// skipped with the context error instead of running.
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	})
	defer cancel()
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
	if ran == 0 {
		t.Error("no job completed before the cancel")
	}
	if skipped == 0 {
		t.Error("no job was skipped by the cancel")
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

func TestRunBatchOnResultStreamsEveryJob(t *testing.T) {
	jobs := batchJobs(t, 12)
	var mu sync.Mutex
	seen := make(map[int]agentring.JobResult)
	results := agentring.RunBatch(context.Background(), jobs, agentring.BatchOptions{
		Workers: 4,
		OnResult: func(i int, r agentring.JobResult) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[i]; dup {
				t.Errorf("job %d reported twice", i)
			}
			seen[i] = r
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
