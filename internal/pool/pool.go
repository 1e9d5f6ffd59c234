// Package pool runs a batch of independent tasks on a bounded number of
// goroutines and reports them in index order. It is the module's one
// batch pool: agentring.RunBatch, the job executor's run/sweep cells
// (internal/jobs) and the exhaustive placement sweep
// (internal/experiments) all run on it.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// Run calls task for every index 0..n-1 and returns the error of the
// task that stopped the batch, or nil.
//
// Tasks start in index order, on the calling goroutine and workers-1
// more; with workers <= 1 every task runs on the calling goroutine, one
// after another. Each task gets its own context, derived from ctx.
//
// done(i) is called once task i and every task before it have
// finished, so its calls come in index order, and never concurrently;
// it sees everything task i wrote.
//
// A task fails by returning an error. When task i fails, no later task
// starts, the contexts of the later tasks already running are
// cancelled, and none of them reaches done; task i and every task
// before it still reach done. Run returns once every task it started
// and every done call have returned.
//
// A task that panics fails the batch the same way, except that it does
// not reach done either. Once every task Run started and every done
// call have returned, Run panics on the calling goroutine with the
// first such panic's value and the stack of the goroutine it happened
// on, so its caller can recover a panic from any task.
func Run(ctx context.Context, n, workers int, task func(ctx context.Context, i int) error, done func(i int)) error {
	b := &batch{limit: n, finished: make([]bool, n), cancels: make([]context.CancelFunc, n)}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.work(ctx, task, done)
		}()
	}
	b.work(ctx, task, done)
	wg.Wait()
	if b.panicked != nil {
		panic(b.panicked)
	}
	return b.err
}

// taskPanic is a task's panic, carried to Run's caller.
type taskPanic struct {
	value any
	stack []byte // of the goroutine the task panicked on
}

func (p *taskPanic) Error() string {
	return fmt.Sprintf("%v\n\n%s", p.value, p.stack)
}

// call runs task i and returns a panic in it as a *taskPanic error.
func call(ctx context.Context, task func(context.Context, int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &taskPanic{value: r, stack: debug.Stack()}
		}
	}()
	return task(ctx, i)
}

// batch is the state one Run shares between its goroutines, guarded by
// mu.
type batch struct {
	mu        sync.Mutex
	next      int                  // the next task to start
	limit     int                  // tasks from limit on never start or reach done
	reported  int                  // tasks handed to done so far
	reporting bool                 // a goroutine is handing tasks to done
	finished  []bool               // finished[i]: task i has returned
	cancels   []context.CancelFunc // the running tasks' cancels; nil once a task returns
	err       error                // the failure that set limit
	panicked  *taskPanic           // the first task panic, re-raised by Run
}

// work starts tasks in index order until none is left below the limit.
func (b *batch) work(ctx context.Context, task func(context.Context, int) error, done func(int)) {
	for {
		b.mu.Lock()
		i := b.next
		if i >= b.limit {
			b.mu.Unlock()
			return
		}
		b.next++
		tctx, cancel := context.WithCancel(ctx)
		b.cancels[i] = cancel
		b.mu.Unlock()

		err := call(tctx, task, i)
		cancel()

		b.mu.Lock()
		b.finished[i], b.cancels[i] = true, nil
		if err != nil && i < b.limit {
			b.limit, b.err = i+1, err
			for _, c := range b.cancels[i+1 : b.next] {
				if c != nil {
					c()
				}
			}
		}
		if p, ok := err.(*taskPanic); ok {
			if b.panicked == nil {
				b.panicked = p
			}
			b.limit = min(b.limit, i)
		}
		if !b.reporting {
			// One goroutine at a time hands the finished tasks next in
			// line to done, outside the lock, so done never runs
			// concurrently and never holds up the other workers.
			b.reporting = true
			for b.reported < b.limit && b.finished[b.reported] {
				r := b.reported
				b.mu.Unlock()
				done(r)
				b.mu.Lock()
				b.reported++
			}
			b.reporting = false
		}
		b.mu.Unlock()
	}
}
