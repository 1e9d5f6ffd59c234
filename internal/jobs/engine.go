package jobs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"agentring"
	"agentring/internal/pool"
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
	// Workers bounds each job's batch worker pool; zero selects
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

// keepFinished is how many finished jobs an engine keeps queryable; the
// oldest-finished is forgotten first, so a resident daemon's job table
// stays bounded however many jobs it runs.
const keepFinished = 1024

// maxSubscribeBuffer caps a subscriber's channel, whose size a client
// names over the wire.
const maxSubscribeBuffer = 1 << 16

type subscriber struct {
	ch      chan Event
	dropped int
}

// Engine is the resident job engine: submit jobs, watch their events,
// fetch their results. Construct with New, shut down with Drain
// followed by Close (or Close alone for an abrupt stop).
type Engine struct {
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	seq  int
	// jobs holds every live job and the retained finished ones;
	// retained lists the latter, oldest-finished first.
	jobs     map[string]*job
	retained []*job
	// queue holds the queued jobs in run order: priority descending,
	// FIFO within a priority.
	queue   []*job
	running int
	// unfinished counts each client's queued and running jobs (a client
	// with none has no entry); final counts the jobs in each final
	// state. Both change only where a job is submitted or turns final.
	unfinished map[string]int
	final      map[State]int
	draining   bool
	closed     bool
	subs       map[int]*subscriber
	subSeq     int
	runners    sync.WaitGroup
	// run executes a job's plan: Run, or a stand-in a test injects.
	run func(context.Context, Plan, int, Hooks) (Result, error)
}

// New starts an engine with Options.Runners executor goroutines.
func New(opts Options) *Engine {
	return newEngine(opts, Run)
}

func newEngine(opts Options, run func(context.Context, Plan, int, Hooks) (Result, error)) *Engine {
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
		opts:       opts,
		jobs:       make(map[string]*job),
		subs:       make(map[int]*subscriber),
		unfinished: make(map[string]int),
		final:      make(map[State]int),
		run:        run,
	}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < opts.Runners; i++ {
		e.runners.Add(1)
		go e.runLoop()
	}
	return e
}

// Submit applies admission control (drain state, queue depth, the
// submitting client's quota), validates the spec and enqueues the job,
// returning its initial snapshot. Admission comes first, so a rejected
// submission costs nothing however large its spec; the spec is then
// compiled eagerly so a bad spec is rejected here instead of failing
// later in the queue. Admission is checked again at enqueue, since the
// engine may have changed while the spec compiled.
func (e *Engine) Submit(client string, spec Spec) (Snapshot, error) {
	e.mu.Lock()
	err := e.admitLocked(client)
	e.mu.Unlock()
	if err != nil {
		return Snapshot{}, err
	}
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
	if err := e.admitLocked(client); err != nil {
		return Snapshot{}, err
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
	at := sort.Search(len(e.queue), func(i int) bool { return e.queue[i].priority < j.priority })
	e.queue = slices.Insert(e.queue, at, j)
	e.unfinished[client]++
	e.publishLocked(Event{Type: "queued", JobID: j.id, Job: snapPtr(j)})
	e.cond.Signal()
	return j.snapshot(), nil
}

// admitLocked returns why a submission from client would be refused
// now, or nil.
func (e *Engine) admitLocked(client string) error {
	if e.draining || e.closed {
		return ErrDraining
	}
	if len(e.queue) >= e.opts.MaxQueue {
		return fmt.Errorf("%w (%d queued)", ErrQueueFull, len(e.queue))
	}
	if load := e.unfinished[client]; load >= e.opts.ClientQuota {
		return fmt.Errorf("%w (%d unfinished)", ErrQuota, load)
	}
	return nil
}

// finishLocked moves j into the final state and its client's and the
// census's counts with it, and retains it in place of the
// oldest-finished job once keepFinished are retained.
func (e *Engine) finishLocked(j *job, state State) {
	j.state = state
	j.finished = time.Now()
	j.plan = Plan{} // a finished job keeps its result, not its configurations
	e.final[state]++
	if e.unfinished[j.client]--; e.unfinished[j.client] == 0 {
		delete(e.unfinished, j.client)
	}
	e.retained = append(e.retained, j)
	if len(e.retained) > keepFinished {
		delete(e.jobs, e.retained[0].id)
		e.retained[0] = nil
		e.retained = e.retained[1:]
	}
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

// List returns the snapshots of the live jobs and the retained finished
// ones, in submission order.
func (e *Engine) List() []Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	known := slices.SortedFunc(maps.Values(e.jobs), func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Snapshot, len(known))
	for i, j := range known {
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
// cells; an exploration stops its search at its next pop, after at
// most one expansion, and is marked cancelled without a result).
// Cancelling a finished job is a no-op.
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
		e.queue = slices.DeleteFunc(e.queue, func(q *job) bool { return q == j })
		e.finishQueuedLocked(j, "cancelled while queued")
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.snapshot(), nil
}

// finishQueuedLocked cancels a job its caller took out of the queue.
func (e *Engine) finishQueuedLocked(j *job, msg string) {
	e.finishLocked(j, StateCancelled)
	j.err = msg
	e.publishLocked(Event{Type: string(StateCancelled), JobID: j.id, Job: snapPtr(j)})
}

// cancelQueueLocked cancels every queued job, in run order.
func (e *Engine) cancelQueueLocked(msg string) {
	for _, j := range e.queue {
		e.finishQueuedLocked(j, msg)
	}
	e.queue = nil
}

// Subscribe registers an event listener with the given channel buffer
// (<=0 selects 256; maxSubscribeBuffer caps it). The bus never blocks
// on a subscriber: events that do not fit the buffer are dropped and
// counted, so a stalled or disconnected client cannot wedge the
// fan-out. Call the returned cancel function to unsubscribe (the
// channel is then closed).
func (e *Engine) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 256
	}
	buffer = min(buffer, maxSubscribeBuffer)
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
		Queued:      len(e.queue),
		Running:     e.running,
		Done:        e.final[StateDone],
		Failed:      e.final[StateFailed],
		Cancelled:   e.final[StateCancelled],
		Subscribers: len(e.subs),
		Draining:    e.draining,
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
	e.cancelQueueLocked("cancelled by drain")
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
		e.cancelRunningLocked()
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
	e.cancelQueueLocked("cancelled by shutdown")
	e.cancelRunningLocked()
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

// cancelRunningLocked cancels every running job's context.
func (e *Engine) cancelRunningLocked() {
	for _, j := range e.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
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
		j := e.queue[0]
		e.queue = slices.Delete(e.queue, 0, 1)
		ctx, cancel := context.WithCancel(context.Background())
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		e.running++
		e.publishLocked(Event{Type: "started", JobID: j.id, Job: snapPtr(j)})
		e.mu.Unlock()

		result, err := e.runContained(ctx, j)
		cancelled := ctx.Err() != nil
		cancel()

		e.mu.Lock()
		switch {
		case cancelled:
			e.finishLocked(j, StateCancelled)
			j.err = "cancelled while running"
		case err != nil:
			e.finishLocked(j, StateFailed)
			j.err = err.Error()
		default:
			e.finishLocked(j, StateDone)
			j.result = &result
		}
		e.running--
		e.publishLocked(Event{Type: string(j.state), JobID: j.id, Job: snapPtr(j)})
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// runContained runs job j's plan. A panic in it (in the search, its
// property, or a cell, which the batch pool hands back to this
// goroutine once the batch has wound down) fails the job, with the
// panic value and stack as its error, instead of taking the engine and
// every queued job down.
func (e *Engine) runContained(ctx context.Context, j *job) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return e.run(ctx, j.plan, e.opts.Workers, e.hooks(j))
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
// GOMAXPROCS); an exploration is one search on the calling goroutine,
// so its report does not depend on workers. A cancelled ctx interrupts a search mid-flight and a batch
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
	var (
		limit   = int64(p.traceEvents)
		emitted atomic.Int64
		sink    agentring.TraceSink
	)
	if limit > 0 && h.Trace != nil {
		// Bounded by the spec's cap so a million-step sweep cannot flood
		// subscribers. The counter is shared across cells and workers;
		// once the cap is spent an event costs a read of it, and a cell
		// that starts then runs without a sink.
		sink = agentring.TraceFunc(func(ev agentring.TraceEvent) {
			if emitted.Load() < limit && emitted.Add(1) <= limit {
				h.Trace(ev)
			}
		})
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := Result{Kind: p.kind, Cells: make([]CellResult, len(cells))}
	errs := make([]error, len(cells))
	// A cell fails the pool only when ctx is cancelled, and a cancelled
	// batch returns ctx's error even if its last cell had finished.
	pool.Run(ctx, len(cells), workers, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg := cells[i].Config
		if sink != nil && emitted.Load() < limit {
			cfg.TraceSink = sink
		}
		rep, err := agentring.Run(cells[i].Algorithm, cfg)
		out.Cells[i] = cellResult(i, agentring.JobResult{Job: cells[i], Report: rep, Err: err})
		errs[i] = err
		if h.Progress != nil {
			h.Progress()
		}
		return nil
	}, func(i int) {
		if h.Cell != nil {
			h.Cell(out.Cells[i])
		}
	})
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var firstErr error
	failures := 0
	for _, err := range errs {
		if err != nil {
			failures++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if failures == len(errs) {
		// Every cell failed: the job itself is broken, not just flaky
		// corners of a grid.
		return Result{}, fmt.Errorf("all %d cells failed: %w", failures, firstErr)
	}
	return out, nil
}

// noteProgress bumps the job's done counter and publishes a progress
// event. Called concurrently from the batch pool's workers.
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
