package pool

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineID returns the running goroutine's id, read off the header
// of its stack trace.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunContract pins Run's contract on synthetic tasks: done sees the
// indexes in order and one call at a time, a failure cancels the later
// tasks already running and keeps them from done, workers <= 1 stays on
// the caller's goroutine, and an empty batch returns at once.
func TestRunContract(t *testing.T) {
	t.Run("done in index order, never concurrently", func(t *testing.T) {
		const n = 64
		squares := make([]int, n)
		var seen []int
		err := Run(context.Background(), n, 4, func(_ context.Context, i int) error {
			// Uneven task times, so tasks finish out of index order.
			time.Sleep(time.Duration(i*7%5) * 100 * time.Microsecond)
			squares[i] = i * i
			return nil
		}, func(i int) {
			// No lock: overlapping calls are a data race on seen, and
			// the sleep keeps a call open while other tasks finish.
			if squares[i] != i*i {
				t.Errorf("done(%d) does not see its task's write", i)
			}
			seen = append(seen, i)
			time.Sleep(100 * time.Microsecond)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range seen {
			if got != i {
				t.Fatalf("done saw %v, want 0..%d in order", seen, n-1)
			}
		}
		if len(seen) != n {
			t.Fatalf("done saw %d tasks, want %d", len(seen), n)
		}
	})

	t.Run("a failure cancels later running tasks and stops done", func(t *testing.T) {
		const (
			n       = 20
			fail    = 5
			workers = 4
		)
		stop := errors.New("stop")
		laterRunning := make(chan struct{})
		var (
			mu        sync.Mutex
			started   []int
			cancelled []int
			seen      []int
		)
		err := Run(context.Background(), n, workers, func(ctx context.Context, i int) error {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			switch {
			case i < fail:
				return nil
			case i == fail:
				<-laterRunning
				return stop
			}
			if i == fail+1 {
				close(laterRunning)
			}
			select {
			case <-ctx.Done():
				mu.Lock()
				cancelled = append(cancelled, i)
				mu.Unlock()
			case <-time.After(10 * time.Second):
				t.Errorf("task %d was not cancelled", i)
			}
			return nil
		}, func(i int) { seen = append(seen, i) })
		if !errors.Is(err, stop) {
			t.Fatalf("Run returned %v, want the failing task's error", err)
		}
		if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(seen, want) {
			t.Errorf("done saw %v, want %v", seen, want)
		}
		slices.Sort(started)
		slices.Sort(cancelled)
		// At the failure the workers hold the failing task and at most
		// three later ones; nothing past them starts.
		if len(started) == 0 || started[len(started)-1] >= fail+workers {
			t.Errorf("started %v: a task past %d started after the failure", started, fail+workers-1)
		}
		if i := slices.Index(started, fail); !slices.Equal(cancelled, started[i+1:]) {
			t.Errorf("cancelled %v, want every later started task %v", cancelled, started[i+1:])
		}
	})

	t.Run("a task's panic reaches the caller once the batch winds down", func(t *testing.T) {
		caller := goroutineID()
		for _, onCaller := range []bool{false, true} {
			// Two tasks, one on each goroutine (neither finishes before
			// both have started): the one on the panicking side panics,
			// the other is still running when it does.
			var (
				bothStarted sync.WaitGroup
				panicked    atomic.Int32
				finished    atomic.Bool
				seen        []int
			)
			bothStarted.Add(2)
			recovered := func() (r any) {
				defer func() { r = recover() }()
				Run(context.Background(), 2, 2, func(_ context.Context, i int) error {
					bothStarted.Done()
					bothStarted.Wait()
					if (goroutineID() == caller) == onCaller {
						panicked.Store(int32(i))
						panic("task fault")
					}
					time.Sleep(20 * time.Millisecond)
					finished.Store(true)
					return nil
				}, func(i int) { seen = append(seen, i) })
				return nil
			}()
			err, ok := recovered.(error)
			if !ok || !strings.HasPrefix(err.Error(), "task fault\n") || !strings.Contains(err.Error(), "goroutine ") {
				t.Fatalf("panic on the caller's goroutine %v: Run panicked with %v, want the task's value and stack", onCaller, recovered)
			}
			if !finished.Load() {
				t.Errorf("panic on the caller's goroutine %v: Run panicked while the other task still ran", onCaller)
			}
			// The task before the panicking one reaches done; the
			// panicking one does not.
			if want := []int{0}[:panicked.Load()]; !slices.Equal(seen, want) {
				t.Errorf("panic on the caller's goroutine %v: done saw %v, want %v", onCaller, seen, want)
			}
		}
	})

	t.Run("workers <= 1 runs on the caller's goroutine", func(t *testing.T) {
		caller := goroutineID()
		for _, workers := range []int{-3, 0, 1} {
			var seen []int
			err := Run(context.Background(), 8, workers, func(_ context.Context, i int) error {
				// Slow enough that another goroutine, had one been
				// started, would take some of the tasks.
				time.Sleep(time.Millisecond)
				if id := goroutineID(); id != caller {
					t.Errorf("workers=%d: task %d ran on goroutine %s, the caller is %s", workers, i, id, caller)
				}
				return nil
			}, func(i int) { seen = append(seen, i) })
			if err != nil || len(seen) != 8 {
				t.Errorf("workers=%d: err %v, done saw %v", workers, err, seen)
			}
		}
	})

	t.Run("n = 0 returns at once", func(t *testing.T) {
		err := Run(context.Background(), 0, 4, func(context.Context, int) error {
			t.Error("a task ran")
			return nil
		}, func(int) { t.Error("done was called") })
		if err != nil {
			t.Fatal(err)
		}
	})
}
