package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sweepSpec is a small but non-trivial grid used throughout the tests.
func sweepSpec() Spec {
	return Spec{
		Kind:      KindSweep,
		Algorithm: "native",
		Ns:        []int{16, 24},
		Ks:        []int{2, 4},
		Seed:      7,
		Scheduler: "synchronous",
	}
}

// blockerSpec is an exploration far too large to finish within a test:
// Native with 7 clustered agents on the 14-ring expands about 45,000
// states a second on a 2-vCPU VM, so even the default cap of 2^20
// states takes some 20 s to reach. It holds a runner until the test
// cancels it.
func blockerSpec() Spec {
	return Spec{Kind: KindExplore, Algorithm: "native", N: 14, K: 7, Workload: "clustered"}
}

// startBlocker submits a blocker for client and waits until it holds a
// runner, so it no longer counts against the queue depth.
func startBlocker(t *testing.T, e *Engine, client string) string {
	t.Helper()
	blocker, err := e.Submit(client, blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	for {
		s, _ := e.Status(blocker.ID)
		if s.State != StateQueued {
			return blocker.ID
		}
		time.Sleep(time.Millisecond)
	}
}

// cancelBlocker cancels a blocker job and waits until it has stopped.
func cancelBlocker(t *testing.T, e *Engine, id string) {
	t.Helper()
	if _, err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if snap := waitFinal(t, e, id); snap.State != StateCancelled {
		t.Fatalf("blocker ended %s, want cancelled", snap.State)
	}
}

func waitFinal(t *testing.T, e *Engine, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State.Final() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Snapshot{}
}

func TestSubmitRunsAndMatchesDirectExecute(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	snap, err := e.Submit("c1", sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued || snap.Total != 4 {
		t.Fatalf("initial snapshot = %+v", snap)
	}
	final := waitFinal(t, e, snap.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Done != final.Total {
		t.Errorf("progress %d/%d at completion", final.Done, final.Total)
	}
	got, err := e.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(sweepSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: the daemon-path payload is byte-identical to
	// the direct RunBatch path for the same spec.
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("engine result diverges from direct execution:\n%s\n%s", gotJSON, wantJSON)
	}
	for _, c := range got.Cells {
		if !c.Uniform {
			t.Errorf("cell %d not uniform: %s", c.Index, c.Why)
		}
	}
}

// TestAllCellsFailedFailsBothWays holds the daemon and Execute to one
// verdict on a spec whose every cell fails (BiNative needs a backward
// port, which the default ring lacks): the job fails, and Execute
// returns an error with the same message.
func TestAllCellsFailedFailsBothWays(t *testing.T) {
	var spec Spec
	if err := json.Unmarshal([]byte(`{"kind":"run","algorithm":"binative","n":8,"k":2}`), &spec); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1})
	defer e.Close()
	snap, err := e.Submit("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFinal(t, e, snap.ID)
	if final.State != StateFailed || !strings.HasPrefix(final.Error, "all 1 cells failed: ") {
		t.Fatalf("daemon job ended %s with %q, want failed with \"all 1 cells failed: ...\"", final.State, final.Error)
	}
	res, err := Execute(spec, 1)
	if err == nil {
		t.Fatalf("Execute returned no error and %d cells, want the daemon's failure", len(res.Cells))
	}
	if err.Error() != final.Error {
		t.Errorf("Execute error %q, daemon job error %q", err, final.Error)
	}
}

// TestPanickingJobFailsAlone injects a panicking plan, once panicking on
// the runner's goroutine and once in every cell, which the batch pool
// runs on two goroutines: the job fails with the panic value and the
// stack in its error, its final event is published, and the runner goes
// on to run the next job to done.
func TestPanickingJobFailsAlone(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		inCells bool
	}{{"runner goroutine", 1, false}, {"cells on two goroutines", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0 // read and written on the engine's one runner goroutine
			e := newEngine(Options{Workers: tc.workers}, func(ctx context.Context, p Plan, workers int, h Hooks) (Result, error) {
				if calls++; calls == 1 {
					if !tc.inCells {
						panic("injected fault")
					}
					h.Progress = func() { panic("injected fault") }
				}
				return Run(ctx, p, workers, h)
			})
			defer e.Close()
			events, cancel := e.Subscribe(1024)
			defer cancel()
			bad, err := e.Submit("c1", sweepSpec())
			if err != nil {
				t.Fatal(err)
			}
			good, err := e.Submit("c1", sweepSpec())
			if err != nil {
				t.Fatal(err)
			}
			final := waitFinal(t, e, bad.ID)
			if final.State != StateFailed || !strings.HasPrefix(final.Error, "job panicked: injected fault\n") ||
				!strings.Contains(final.Error, "runContained") {
				t.Fatalf("panicking job ended %s with %q, want failed with the panic value and stack", final.State, final.Error)
			}
			if got := waitFinal(t, e, good.ID); got.State != StateDone {
				t.Fatalf("next job ended %s (%s), want done", got.State, got.Error)
			}
			timeout := time.After(10 * time.Second)
			for {
				select {
				case ev := <-events:
					if ev.JobID == bad.ID && ev.Type == string(StateFailed) {
						if ev.Job == nil || ev.Job.Error != final.Error {
							t.Fatalf("failed event carries %+v, want the job's error", ev.Job)
						}
						return
					}
				case <-timeout:
					t.Fatal("no failed event for the panicking job")
				}
			}
		})
	}
}

// TestFinishedJobsAreForgottenOldestFirst runs keepFinished+10 jobs
// through a stub plan: the engine keeps the last keepFinished of them
// queryable, forgets the oldest-finished, and still counts every one.
func TestFinishedJobsAreForgottenOldestFirst(t *testing.T) {
	e := newEngine(Options{Workers: 1, MaxQueue: 2 * keepFinished, ClientQuota: 2 * keepFinished}, func(ctx context.Context, p Plan, workers int, h Hooks) (Result, error) {
		return Result{Kind: p.kind}, nil
	})
	defer e.Close()
	total := keepFinished + 10
	var ids []string
	for range total {
		snap, err := e.Submit("c1", Spec{Kind: KindRun, Algorithm: "native", N: 8, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	waitFinal(t, e, ids[total-1])
	list := e.List()
	if len(list) != keepFinished {
		t.Fatalf("List holds %d jobs, want %d", len(list), keepFinished)
	}
	for i, s := range list {
		if s.ID != ids[10+i] {
			t.Fatalf("List[%d] is %s, want %s: the last %d jobs in submission order", i, s.ID, ids[10+i], keepFinished)
		}
	}
	if _, err := e.Status(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("status of the oldest job: err = %v, want ErrNotFound", err)
	}
	if _, err := e.Cancel(ids[9]); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of a forgotten job: err = %v, want ErrNotFound", err)
	}
	if res, err := e.Result(ids[total-1]); err != nil || res.Kind != KindRun {
		t.Errorf("result of the newest job: %+v, %v", res, err)
	}
	if got := e.Stats(); got.Done != total || got.Queued != 0 {
		t.Errorf("Stats %+v, want %d done and none queued", got, total)
	}
}

func TestExploreJob(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	snap, err := e.Submit("c1", Spec{
		Kind: KindExplore, Algorithm: "native", N: 4, K: 2, Workload: "clustered",
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitFinal(t, e, snap.ID)
	if final.State != StateDone {
		t.Fatalf("explore ended %s: %s", final.State, final.Error)
	}
	res, err := e.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explore == nil || !res.Explore.Complete || res.Explore.Counterexample != nil {
		t.Fatalf("explore result = %+v", res.Explore)
	}
}

func TestBadSpecRejectedAtSubmit(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if _, err := e.Submit("c1", Spec{Kind: KindRun, Algorithm: "nope", N: 8, K: 2}); !errors.Is(err, ErrSpec) {
		t.Errorf("bad algorithm: err = %v, want ErrSpec", err)
	}
	if _, err := e.Submit("c1", Spec{Kind: "meta", Algorithm: "native"}); !errors.Is(err, ErrSpec) {
		t.Errorf("bad kind: err = %v, want ErrSpec", err)
	}
	if _, err := e.Submit("c1", Spec{Kind: KindSweep, Algorithm: "native", Ns: []int{8}, Ks: []int{8}}); !errors.Is(err, ErrSpec) {
		t.Errorf("unscatterable grid: err = %v, want ErrSpec", err)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	// A single runner held by a blocker; then a low and a high priority
	// job: once the blocker is cancelled, the high one must run first.
	e := New(Options{Runners: 1, Workers: 1})
	defer e.Close()
	blocker, err := e.Submit("c1", blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	low, err := e.Submit("c1", Spec{Kind: KindRun, Algorithm: "native", N: 12, K: 2, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.Submit("c1", Spec{Kind: KindRun, Algorithm: "native", N: 12, K: 2, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	cancelBlocker(t, e, blocker.ID)
	hi := waitFinal(t, e, high.ID)
	lo := waitFinal(t, e, low.ID)
	if hi.Started == 0 || lo.Started == 0 {
		t.Fatalf("missing start stamps: hi=%+v lo=%+v", hi, lo)
	}
	if hi.Started > lo.Started {
		t.Errorf("high-priority job started at %d, after low-priority at %d", hi.Started, lo.Started)
	}
}

func TestAdmissionQueueDepthAndQuota(t *testing.T) {
	// Runners=1 and a blocker keep everything else queued.
	e := New(Options{Runners: 1, Workers: 1, MaxQueue: 3, ClientQuota: 2})
	defer e.Close()
	blocker := startBlocker(t, e, "greedy")
	if _, err := e.Submit("greedy", sweepSpec()); err != nil {
		t.Fatal(err)
	}
	// greedy now has 2 unfinished jobs: quota reached.
	if _, err := e.Submit("greedy", sweepSpec()); !errors.Is(err, ErrQuota) {
		t.Errorf("quota breach: err = %v, want ErrQuota", err)
	}
	// Other clients can still queue until MaxQueue is reached. The
	// queue currently holds 1 job (the blocker is running).
	if _, err := e.Submit("other1", sweepSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("other2", sweepSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("other3", sweepSpec()); !errors.Is(err, ErrQueueFull) {
		t.Errorf("queue overflow: err = %v, want ErrQueueFull", err)
	}
	cancelBlocker(t, e, blocker)
}

// TestRejectedSubmitCompilesNothing: admission runs before the spec is
// compiled, so a draining engine, a full queue and an over-quota client
// each refuse a spec at the node bound with their own error, without
// building its 2^24-node placement (about 134 MB).
func TestRejectedSubmitCompilesNothing(t *testing.T) {
	big := Spec{Kind: KindRun, Algorithm: "native", N: 1 << 24, K: 2}
	cases := []struct {
		name   string
		opts   Options
		setup  func(t *testing.T, e *Engine)
		client string
		want   error
	}{
		{"draining", Options{Workers: 1}, func(t *testing.T, e *Engine) {
			e.Drain(context.Background())
		}, "c1", ErrDraining},
		{"full queue", Options{Runners: 1, Workers: 1, MaxQueue: 1}, func(t *testing.T, e *Engine) {
			startBlocker(t, e, "c1")
			if _, err := e.Submit("c1", sweepSpec()); err != nil {
				t.Fatal(err)
			}
		}, "c2", ErrQueueFull},
		{"over quota", Options{Runners: 1, Workers: 1, ClientQuota: 1}, func(t *testing.T, e *Engine) {
			startBlocker(t, e, "greedy")
		}, "greedy", ErrQuota},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.opts)
			defer e.Close()
			tc.setup(t, e)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := e.Submit(tc.client, big)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Errorf("rejecting the spec allocated %d bytes", grew)
			}
		})
	}
}

// TestStatsAndQuotaMatchList: the engine's kept counts — Stats' census
// and each client's unfinished jobs, which the quota reads — agree with
// a count over List() after submits, cancels, a failing job and a
// drain.
func TestStatsAndQuotaMatchList(t *testing.T) {
	e := New(Options{Runners: 1, Workers: 1, ClientQuota: 3})
	defer e.Close()
	check := func(when string) {
		t.Helper()
		var want Stats
		unfinished := map[string]int{}
		for _, s := range e.List() {
			switch s.State {
			case StateQueued:
				want.Queued++
			case StateRunning:
				want.Running++
			case StateDone:
				want.Done++
			case StateFailed:
				want.Failed++
			case StateCancelled:
				want.Cancelled++
			}
			if !s.State.Final() {
				unfinished[s.Client]++
			}
		}
		got := e.Stats()
		want.Subscribers, want.Dropped, want.Draining = got.Subscribers, got.Dropped, got.Draining
		if got != want {
			t.Errorf("%s: Stats %+v, List counts %+v", when, got, want)
		}
		e.mu.Lock()
		kept := maps.Clone(e.unfinished)
		e.mu.Unlock()
		if !maps.Equal(kept, unfinished) {
			t.Errorf("%s: unfinished jobs per client %v, List counts %v", when, kept, unfinished)
		}
	}
	var failing Spec
	if err := json.Unmarshal([]byte(`{"kind":"run","algorithm":"binative","n":8,"k":2}`), &failing); err != nil {
		t.Fatal(err)
	}
	blocker := startBlocker(t, e, "c1")
	var ids []string
	for _, sub := range []struct {
		client string
		spec   Spec
	}{{"c1", sweepSpec()}, {"c2", sweepSpec()}, {"c2", failing}, {"c2", sweepSpec()}} {
		snap, err := e.Submit(sub.client, sub.spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	if _, err := e.Submit("c2", sweepSpec()); !errors.Is(err, ErrQuota) {
		t.Errorf("c2's fourth unfinished job: err = %v, want ErrQuota", err)
	}
	if _, err := e.Cancel(ids[3]); err != nil {
		t.Fatal(err)
	}
	check("queued behind the blocker")
	cancelBlocker(t, e, blocker)
	for _, id := range ids {
		waitFinal(t, e, id)
	}
	check("all finished")
	if got := e.Stats(); got.Done != 2 || got.Failed != 1 || got.Cancelled != 2 {
		t.Errorf("census %+v, want 2 done, 1 failed and 2 cancelled", got)
	}
	startBlocker(t, e, "c1")
	if _, err := e.Submit("c1", sweepSpec()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	e.Drain(ctx)
	check("drained")
}

func TestCancelQueuedJob(t *testing.T) {
	e := New(Options{Runners: 1, Workers: 1})
	defer e.Close()
	blocker, err := e.Submit("c1", blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	victim, err := e.Submit("c1", sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Cancel(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCancelled {
		t.Fatalf("cancelled queued job is %s", snap.State)
	}
	if _, err := e.Result(victim.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("result of cancelled job: err = %v, want ErrNotFinished", err)
	}
	cancelBlocker(t, e, blocker.ID)
}

func TestCancelRunningJobStopsBetweenCells(t *testing.T) {
	e := New(Options{Runners: 1, Workers: 1})
	defer e.Close()
	// Many cells, each a few milliseconds, so the cancel lands mid-job.
	big := Spec{Kind: KindSweep, Algorithm: "logspace", Ns: []int{1024, 2048, 4096}, Ks: []int{8, 16, 32, 64}, Seed: 5}
	snap, err := e.Submit("c1", big)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is running and has made some progress.
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := e.Status(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == StateRunning && s.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFinal(t, e, snap.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled running job ended %s", final.State)
	}
}

// TestEventsStreamProgressAndTraces runs the sweep on one worker and on
// two, whose cells share the trace cap.
func TestEventsStreamProgressAndTraces(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			e := New(Options{Workers: workers})
			defer e.Close()
			events, cancel := e.Subscribe(4096)
			defer cancel()
			spec := sweepSpec()
			spec.TraceEvents = 50
			snap, err := e.Submit("c1", spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFinal(t, e, snap.ID)
			// Drain what the bus delivered so far.
			seen := map[string]int{}
			timeout := time.After(10 * time.Second)
			for seen["done"] == 0 {
				select {
				case ev := <-events:
					seen[ev.Type]++
					if ev.Type == "trace" {
						if ev.Trace == nil || ev.Trace.Kind == "" {
							t.Fatalf("trace event without payload: %+v", ev)
						}
					}
				case <-timeout:
					t.Fatalf("no done event; saw %v", seen)
				}
			}
			if seen["queued"] == 0 || seen["started"] == 0 {
				t.Errorf("missing lifecycle events: %v", seen)
			}
			if seen["progress"] != snap.Total {
				t.Errorf("progress events = %d, want %d", seen["progress"], snap.Total)
			}
			// The sweep's first cell alone emits more events than the cap.
			if seen["trace"] != 50 {
				t.Errorf("trace events = %d, want the cap of 50", seen["trace"])
			}
		})
	}
}

func TestSlowSubscriberDropsInsteadOfWedging(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	// A 1-slot subscriber that never reads: the bus must drop events,
	// not block the runner.
	_, cancel := e.Subscribe(1)
	defer cancel()
	spec := sweepSpec()
	spec.TraceEvents = 1000
	snap, err := e.Submit("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFinal(t, e, snap.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s with a stalled subscriber", final.State)
	}
	if e.Stats().Dropped == 0 {
		t.Error("no events recorded as dropped despite a full 1-slot buffer")
	}
}

func TestUnsubscribedChannelCloses(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	events, cancel := e.Subscribe(8)
	cancel()
	if _, ok := <-events; ok {
		t.Error("channel still open after unsubscribe")
	}
	// Publishing after unsubscribe must not panic.
	if _, err := e.Submit("c1", Spec{Kind: KindRun, Algorithm: "native", N: 8, K: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestDrainCancelsQueuedFinishesRunning(t *testing.T) {
	e := New(Options{Runners: 1, Workers: 1})
	defer e.Close()
	// An exploration that runs out its 200ms budget, so the second
	// submission is still queued when the drain lands, and the drain
	// waits for the first to finish.
	long := blockerSpec()
	long.MaxDurationMS = 200
	running, err := e.Submit("c1", long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit("c2", sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Give the runner a moment to pick up the first job.
	for {
		s, _ := e.Status(running.ID)
		if s.State != StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	e.Drain(ctx)
	run, _ := e.Status(running.ID)
	que, _ := e.Status(queued.ID)
	if run.State != StateDone {
		t.Errorf("running job ended %s, want done", run.State)
	}
	if que.State != StateCancelled {
		t.Errorf("queued job ended %s, want cancelled", que.State)
	}
	if _, err := e.Submit("c3", sweepSpec()); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsRunning(t *testing.T) {
	e := New(Options{Runners: 1, Workers: 1})
	defer e.Close()
	// A job that outlives the immediate deadline.
	snap, err := e.Submit("c1", blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	for {
		s, _ := e.Status(snap.ID)
		if s.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx() // deadline already passed: drain must cancel, not wait
	start := time.Now()
	e.Drain(ctx)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("drain with expired deadline took %v", elapsed)
	}
	final, _ := e.Status(snap.ID)
	if final.State != StateCancelled {
		t.Errorf("running job ended %s after deadline drain, want cancelled", final.State)
	}
}

func TestListOrdersBySubmission(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		s, err := e.Submit("c1", Spec{Kind: KindRun, Algorithm: "native", N: 12, K: 3, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	list := e.List()
	var got []string
	for _, s := range list {
		got = append(got, s.ID)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Errorf("List order %v, want %v", got, ids)
	}
	for _, id := range ids {
		waitFinal(t, e, id)
	}
}

func TestConcurrentSubmittersAreSafe(t *testing.T) {
	e := New(Options{Workers: 1, Runners: 2, MaxQueue: 1000, ClientQuota: 1000})
	defer e.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s, err := e.Submit("client", Spec{Kind: KindRun, Algorithm: "native", N: 16, K: 2, Seed: int64(c*100 + i)})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids = append(ids, s.ID)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, id := range ids {
		if snap := waitFinal(t, e, id); snap.State != StateDone {
			t.Errorf("job %s ended %s: %s", id, snap.State, snap.Error)
		}
	}
}
