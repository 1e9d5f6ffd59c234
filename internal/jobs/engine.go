package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"agentring"
)

// Admission and lookup errors, matchable with errors.Is.
var (
	// ErrDraining means the engine no longer accepts submissions.
	ErrDraining = errors.New("jobs: engine is draining")
	// ErrQueueFull means the queue reached Options.MaxQueue.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQuota means the submitting client reached Options.ClientQuota
	// unfinished jobs.
	ErrQuota = errors.New("jobs: per-client quota exceeded")
	// ErrNotFound means no job has the given id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotFinished means the job has not completed successfully (still
	// queued/running, cancelled, or failed), so it has no result payload.
	ErrNotFinished = errors.New("jobs: job result not available")
)

// State is a job's lifecycle position.
type State string

// Job states. Queued and Running are live; the other three are final.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Final reports whether the state is terminal.
func (s State) Final() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Options tunes an Engine.
type Options struct {
	// Workers bounds each job's RunBatch worker pool; zero selects
	// GOMAXPROCS.
	Workers int
	// Runners bounds how many jobs execute concurrently; zero selects 1
	// (strict queue order).
	Runners int
	// MaxQueue is the admission bound on queued jobs; zero selects 64.
	MaxQueue int
	// ClientQuota bounds one client's unfinished (queued + running)
	// jobs; zero selects 8.
	ClientQuota int
}

// Snapshot is the externally visible state of a job, the payload of the
// job.status and job.list RPCs and of job lifecycle events.
type Snapshot struct {
	ID       string `json:"id"`
	Client   string `json:"client,omitempty"`
	Spec     Spec   `json:"spec"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	// Done/Total are the progress counters: cells completed vs. cells in
	// the job (explorations count as one cell).
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	// Submitted/Started/Finished are Unix milliseconds; zero = not yet.
	Submitted int64 `json:"submitted,omitempty"`
	Started   int64 `json:"started,omitempty"`
	Finished  int64 `json:"finished,omitempty"`
}

// Event is one bus message: a job lifecycle/progress notification, or a
// live trace event from a running job's cells.
type Event struct {
	// Type is queued | started | progress | done | failed | cancelled |
	// trace | drain.
	Type  string    `json:"type"`
	Job   *Snapshot `json:"job,omitempty"`
	JobID string    `json:"job_id,omitempty"`
	// Trace carries the execution event when Type == "trace".
	Trace *agentring.TraceEvent `json:"trace,omitempty"`
	// Explore carries live explorer counters on the "progress" events an
	// explore job streams while its search runs (run/sweep progress
	// events carry only the Job snapshot's done counter).
	Explore *agentring.ExploreProgress `json:"explore,omitempty"`
}

// job is the engine-internal record; all fields are guarded by the
// engine mutex except result, written once by the owning runner before
// the state turns final.
type job struct {
	id       string
	client   string
	spec     Spec
	plan     Plan
	state    State
	priority int
	seq      int
	done     int
	total    int
	err      string
	result   *Result
	cancel   context.CancelFunc

	submitted, started, finished time.Time
}

func (j *job) snapshot() Snapshot {
	s := Snapshot{
		ID:        j.id,
		Client:    j.client,
		Spec:      j.spec,
		State:     j.state,
		Priority:  j.priority,
		Done:      j.done,
		Total:     j.total,
		Error:     j.err,
		Submitted: unixMilli(j.submitted),
		Started:   unixMilli(j.started),
		Finished:  unixMilli(j.finished),
	}
	return s
}

func unixMilli(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// jobHeap orders queued jobs by (priority desc, submission seq asc):
// a priority FIFO.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type subscriber struct {
	ch      chan Event
	dropped int
}

// Engine is the resident job engine: submit jobs, watch their events,
// fetch their results. Construct with New, shut down with Drain
// followed by Close (or Close alone for an abrupt stop).
type Engine struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	seq      int
	jobs     map[string]*job
	order    []*job
	queue    jobHeap
	queued   int
	running  int
	draining bool
	closed   bool
	subs     map[int]*subscriber
	subSeq   int
	runners  sync.WaitGroup
}

// New starts an engine with Options.Runners executor goroutines.
func New(opts Options) *Engine {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.ClientQuota <= 0 {
		opts.ClientQuota = 8
	}
	if opts.Runners <= 0 {
		opts.Runners = 1
	}
	e := &Engine{
		opts: opts,
		jobs: make(map[string]*job),
		subs: make(map[int]*subscriber),
	}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < opts.Runners; i++ {
		e.runners.Add(1)
		go e.runLoop()
	}
	return e
}

// Submit validates the spec, applies admission control (drain state,
// queue depth, the submitting client's quota) and enqueues the job,
// returning its initial snapshot. The spec is compiled eagerly so a bad
// spec is rejected here instead of failing later in the queue.
func (e *Engine) Submit(client string, spec Spec) (Snapshot, error) {
	plan, err := Compile(spec)
	if err != nil {
		return Snapshot{}, err
	}
	total := len(plan.Cells)
	if plan.Explore != nil {
		total = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining || e.closed {
		return Snapshot{}, ErrDraining
	}
	if e.queued >= e.opts.MaxQueue {
		return Snapshot{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, e.queued)
	}
	if load := e.clientLoadLocked(client); load >= e.opts.ClientQuota {
		return Snapshot{}, fmt.Errorf("%w (%d unfinished)", ErrQuota, load)
	}
	e.seq++
	j := &job{
		id:        fmt.Sprintf("j%d", e.seq),
		client:    client,
		spec:      spec,
		plan:      plan,
		state:     StateQueued,
		priority:  spec.Priority,
		seq:       e.seq,
		total:     total,
		submitted: time.Now(),
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	heap.Push(&e.queue, j)
	e.queued++
	e.publishLocked(Event{Type: "queued", JobID: j.id, Job: snapPtr(j)})
	e.cond.Signal()
	return j.snapshot(), nil
}

func (e *Engine) clientLoadLocked(client string) int {
	load := 0
	for _, j := range e.order {
		if j.client == client && !j.state.Final() {
			load++
		}
	}
	return load
}

// Status returns the job's snapshot.
func (e *Engine) Status(id string) (Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.snapshot(), nil
}

// List returns every known job's snapshot in submission order.
func (e *Engine) List() []Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Snapshot, len(e.order))
	for i, j := range e.order {
		out[i] = j.snapshot()
	}
	return out
}

// Result returns a done job's payload. Unfinished, cancelled and failed
// jobs return ErrNotFinished (with the failure message for failed ones).
func (e *Engine) Result(id string) (Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Result{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.state {
	case StateDone:
		return *j.result, nil
	case StateFailed:
		return Result{}, fmt.Errorf("%w: job failed: %s", ErrNotFinished, j.err)
	default:
		return Result{}, fmt.Errorf("%w: job is %s", ErrNotFinished, j.state)
	}
}

// Cancel cancels a job: a queued job turns cancelled immediately, a
// running job's context is cancelled (run/sweep jobs stop between
// cells; an exploration stops its search at the next frontier pop of
// any worker, after at most one expansion per worker, and is marked
// cancelled without a result). Cancelling a finished job is a no-op.
// The returned snapshot is the state as of the call.
func (e *Engine) Cancel(id string) (Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		e.finishQueuedLocked(j, StateCancelled, "cancelled while queued")
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.snapshot(), nil
}

// finishQueuedLocked retires a job straight out of the queue (cancel or
// drain): the heap entry is removed lazily by the runner loop.
func (e *Engine) finishQueuedLocked(j *job, state State, msg string) {
	j.state = state
	j.err = msg
	j.finished = time.Now()
	j.plan = Plan{}
	e.queued--
	e.publishLocked(Event{Type: string(state), JobID: j.id, Job: snapPtr(j)})
	e.cond.Broadcast()
}

// Subscribe registers an event listener with the given channel buffer
// (<=0 selects 256). The bus never blocks on a subscriber: events that
// do not fit the buffer are dropped and counted, so a stalled or
// disconnected client cannot wedge the fan-out. Call the returned
// cancel function to unsubscribe (the channel is then closed).
func (e *Engine) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 256
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subSeq++
	id := e.subSeq
	sub := &subscriber{ch: make(chan Event, buffer)}
	e.subs[id] = sub
	return sub.ch, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if s, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(s.ch)
		}
	}
}

// Dropped returns the total number of events dropped across all current
// subscribers (a fan-out health indicator surfaced by daemon.status).
func (e *Engine) Dropped() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, s := range e.subs {
		total += s.dropped
	}
	return total
}

func (e *Engine) publishLocked(ev Event) {
	for _, s := range e.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped++
		}
	}
}

func (e *Engine) publish(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.publishLocked(ev)
}

func snapPtr(j *job) *Snapshot {
	s := j.snapshot()
	return &s
}

// Stats is the engine-level census behind daemon.status.
type Stats struct {
	Queued      int  `json:"queued"`
	Running     int  `json:"running"`
	Done        int  `json:"done"`
	Failed      int  `json:"failed"`
	Cancelled   int  `json:"cancelled"`
	Subscribers int  `json:"subscribers"`
	Dropped     int  `json:"dropped_events"`
	Draining    bool `json:"draining"`
}

// Stats returns the engine census.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Queued:      e.queued,
		Running:     e.running,
		Subscribers: len(e.subs),
		Draining:    e.draining,
	}
	for _, j := range e.order {
		switch j.state {
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	for _, s := range e.subs {
		st.Dropped += s.dropped
	}
	return st
}

// Drain gracefully shuts the queue down: no further submissions are
// accepted, still-queued jobs are cancelled, and running jobs get until
// ctx is done to finish — after which they are cancelled too. Drain
// returns once no job is running. The engine stays queryable (Status,
// List, Result) until Close.
func (e *Engine) Drain(ctx context.Context) {
	e.mu.Lock()
	if e.draining {
		// A concurrent drain is already emptying the queue; just wait for
		// running jobs below.
		for e.running > 0 {
			e.cond.Wait()
		}
		e.mu.Unlock()
		return
	}
	e.draining = true
	for _, j := range e.order {
		if j.state == StateQueued {
			e.finishQueuedLocked(j, StateCancelled, "cancelled by drain")
		}
	}
	e.publishLocked(Event{Type: "drain"})
	e.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		e.mu.Lock()
		for e.running > 0 {
			e.cond.Wait()
		}
		e.mu.Unlock()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		// Deadline passed: cancel whatever is still running and wait for
		// the runners to wind it down (between-cell latency).
		e.mu.Lock()
		for _, j := range e.order {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		e.mu.Unlock()
		<-finished
	}
}

// Close stops the runner goroutines and closes every subscriber
// channel. Jobs still running are cancelled and awaited; prefer Drain
// first for a graceful stop.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.draining = true
	e.closed = true
	for _, j := range e.order {
		switch j.state {
		case StateQueued:
			e.finishQueuedLocked(j, StateCancelled, "cancelled by shutdown")
		case StateRunning:
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	e.runners.Wait()
	e.mu.Lock()
	for id, s := range e.subs {
		delete(e.subs, id)
		close(s.ch)
	}
	e.mu.Unlock()
}

// runLoop is one executor goroutine: pop the highest-priority queued
// job, run it to a final state, repeat.
func (e *Engine) runLoop() {
	defer e.runners.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		j := heap.Pop(&e.queue).(*job)
		if j.state != StateQueued {
			// Cancelled (or drained) while queued; its heap entry is
			// removed lazily here.
			e.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		e.queued--
		e.running++
		e.publishLocked(Event{Type: "started", JobID: j.id, Job: snapPtr(j)})
		e.mu.Unlock()

		result, err := Run(ctx, j.plan, e.opts.Workers, e.hooks(j))
		cancelled := ctx.Err() != nil
		cancel()

		e.mu.Lock()
		switch {
		case cancelled:
			j.state = StateCancelled
			j.err = "cancelled while running"
		case err != nil:
			j.state = StateFailed
			j.err = err.Error()
		default:
			j.state = StateDone
			j.result = &result
		}
		j.finished = time.Now()
		j.plan = Plan{} // a finished job keeps its result, not its configurations
		e.running--
		e.publishLocked(Event{Type: string(j.state), JobID: j.id, Job: snapPtr(j)})
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// Hooks are a running plan's windows onto its progress; nil hooks are
// skipped.
type Hooks struct {
	// Progress is called once per finished cell (concurrently, from the
	// batch workers) or once after a search.
	Progress func()
	// Cell receives every finished run/sweep cell in grid order, as
	// soon as it and all cells before it have finished, so a consumer
	// sees rows stream out while the batch is still running. It is
	// never called concurrently.
	Cell func(CellResult)
	// Explore receives the search's live counters.
	Explore func(agentring.ExploreProgress)
	// Trace receives up to Spec.TraceEvents execution events from the
	// plan's cells.
	Trace func(agentring.TraceEvent)
}

// hooks publishes job j's progress, live explorer counters and trace
// events to the bus.
func (e *Engine) hooks(j *job) Hooks {
	return Hooks{
		Progress: func() { e.noteProgress(j) },
		Explore: func(p agentring.ExploreProgress) {
			e.publish(Event{Type: "progress", JobID: j.id, Explore: &p})
		},
		Trace: func(ev agentring.TraceEvent) {
			e.publish(Event{Type: "trace", JobID: j.id, Trace: &ev})
		},
	}
}

// Run executes a compiled plan. It is the one path a daemon job,
// Execute and the CLIs take, so their results and failures agree byte
// for byte. workers bounds the run/sweep batch pool (zero selects
// GOMAXPROCS); an exploration's parallelism comes from its spec
// instead, so its report does not depend on how the caller sized the
// pool. A cancelled ctx interrupts a search mid-flight and a batch
// between cells, and is returned as the batch's error.
func Run(ctx context.Context, p Plan, workers int, h Hooks) (Result, error) {
	if p.Explore != nil {
		opts := p.Options
		opts.Progress = h.Explore
		rep, err := agentring.Explore(ctx, p.Algorithm, *p.Explore, opts)
		if err != nil {
			return Result{}, err
		}
		if h.Progress != nil {
			h.Progress()
		}
		return Result{Kind: p.kind, Explore: &rep}, nil
	}

	cells := p.Cells
	if limit := int64(p.traceEvents); limit > 0 && h.Trace != nil {
		// Bounded by the spec's cap so a million-step sweep cannot flood
		// subscribers. The counter is shared across cells and workers.
		var emitted atomic.Int64
		sink := agentring.TraceFunc(func(ev agentring.TraceEvent) {
			if emitted.Add(1) <= limit {
				h.Trace(ev)
			}
		})
		cells = slices.Clone(cells)
		for i := range cells {
			cells[i].Config.TraceSink = sink
		}
	}
	out := Result{Kind: p.kind, Cells: make([]CellResult, len(cells))}
	var (
		mu   sync.Mutex
		done = make([]bool, len(cells))
		next int
	)
	results := agentring.RunBatch(ctx, cells, agentring.BatchOptions{
		Workers: workers,
		OnResult: func(i int, r agentring.JobResult) {
			if h.Progress != nil {
				h.Progress()
			}
			// The lock is held across Cell so that calls come strictly
			// in grid order, whatever order the pool finishes cells in,
			// and never concurrently.
			mu.Lock()
			defer mu.Unlock()
			out.Cells[i] = cellResult(i, r)
			done[i] = true
			for ; next < len(done) && done[next]; next++ {
				if h.Cell != nil {
					h.Cell(out.Cells[next])
				}
			}
		},
	})
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var firstErr error
	failures := 0
	for _, r := range results {
		if r.Err != nil {
			failures++
			if firstErr == nil {
				firstErr = r.Err
			}
		}
	}
	if failures == len(results) {
		// Every cell failed: the job itself is broken, not just flaky
		// corners of a grid.
		return Result{}, fmt.Errorf("all %d cells failed: %w", failures, firstErr)
	}
	return out, nil
}

// noteProgress bumps the job's done counter and publishes a progress
// event. Called concurrently from RunBatch workers.
func (e *Engine) noteProgress(j *job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j.done++
	e.publishLocked(Event{Type: "progress", JobID: j.id, Job: snapPtr(j)})
}

// Execute runs a spec synchronously in-process, outside any queue: the
// exact code path a daemon job takes, minus admission and events. The
// daemon-vs-direct equivalence guarantee rests on this shared path —
// `agentring submit -local` and the e2e tests both compare a daemon
// job.result payload against Execute's, and a spec whose every cell
// fails is an error both ways.
func Execute(spec Spec, workers int) (Result, error) {
	p, err := Compile(spec)
	if err != nil {
		return Result{}, err
	}
	return Run(context.Background(), p, workers, Hooks{})
}
