package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
)

// ErrSetup wraps invalid explorer construction arguments.
var ErrSetup = errors.New("explore: invalid setup")

// Default search bounds.
const (
	DefaultMaxDepth  = 4096
	DefaultMaxStates = 1 << 20
)

// progressInterval is how often a running search emits Progress
// snapshots; a variable so tests can tighten it.
var progressInterval = 200 * time.Millisecond

// Factory builds one fresh set of agent programs per engine. The search
// calls it once for its resident engine and once per from-root replay
// confirming a counterexample; every agent's frame saves its state, so
// each engine checkpoints. The factory must return programs in the same
// deterministic initial state every time.
type Factory func() ([]sim.Program, error)

// Setup fixes the system whose schedule space is explored: a substrate
// (a unidirectional ring of N nodes unless Topology overrides it), at
// most 64 agents on the given distinct homes (sleep sets are agent
// bitmasks), and a program factory.
type Setup struct {
	N        int
	Homes    []int
	Programs Factory
	// Topology, if non-nil, replaces the default N-node unidirectional
	// ring. Topologies must be immutable: one value is shared across
	// every engine. N is ignored (derived) when Topology is set.
	Topology sim.Topology
	// Faults schedules link mutations applied identically in every
	// execution (sim.Options.Faults), so the checker enumerates all agent
	// interleavings around a fixed failure/repair timeline. Fault steps
	// are indexed by atomic-action count, which equals the decision
	// depth, making the schedule a deterministic function of depth — and
	// that fact reshapes two of the static search's ingredients:
	//
	//   - a configuration's future depends on the pending fault suffix,
	//     i.e. on how many actions have executed, not just on the
	//     visible state; state-cache keys therefore additionally fold
	//     the depth, so convergence is only recognized between prefixes
	//     of equal length;
	//   - swapping two adjacent actions is only state-preserving when no
	//     mutation fires between them, so the sleep-set reduction runs
	//     depth-stratified: at any depth where the next action's step
	//     count fires a scheduled fault, children start with empty sleep
	//     sets and no sibling commutation is recorded. Away from those
	//     boundary depths the reduction applies in full (fault state is
	//     then identical in both interleavings, and frozen-link
	//     enabledness is a function of that shared state).
	Faults sim.FaultSchedule
	// Adversary, if non-nil, replaces the fixed fault timeline with an
	// online adversary (sim.Options.Adversary): fail and repair moves
	// become choices at every decision point, so the search quantifies
	// over every failure pattern the budget admits instead of one
	// schedule. Mutually exclusive with Faults. The static search's two
	// fault adaptations invert here:
	//
	//   - cache keys fold no depth: the adversary state a configuration
	//     carries (spent fails, relative outage ages) is part of
	//     Engine.StateKey, and together with the visible state it fully
	//     determines the future — equal keys at different depths really
	//     do converge;
	//   - the sleep-set reduction stratifies on *link state* rather than
	//     depth: at any node where a link is down (equivalently, where a
	//     repair choice is enabled), agent actions age the outage and can
	//     flip the next decision point into a forced repair, so adjacent
	//     exchanges are not enabledness-preserving there — children start
	//     with empty sleep sets and no commutation is recorded. Children
	//     reached by an adversary move likewise start empty. Away from
	//     down links the reduction applies in full, because agent actions
	//     touch no adversary state while every link is up.
	Adversary *sim.AdversaryBudget
	// Property checks a quiescent terminal state, returning "" when it
	// is acceptable and a human-readable violation otherwise. Nil
	// selects the paper's predicate: uniform deployment on the n-node
	// ring numbering (sound for every substrate whose port-0 links form
	// a Hamiltonian cycle in node order — the ring, the bidirectional
	// ring, Euler virtual rings, and the twisted torus).
	Property func(res sim.Result) string
}

// Budget bounds one search. MaxDepth, MaxStates and MaxDuration
// truncate it: exhausting one stops the search where it is and reports
// Complete == false, with the cut branches counted in Truncated, and
// no error. MaxSteps and MaxTotalMoves are checked bounds instead: a
// schedule that passes one is reported as a counterexample. The zero
// value selects DefaultMaxDepth, DefaultMaxStates and the engine's
// default step bound, and leaves the rest unbounded.
type Budget struct {
	// MaxDepth bounds the length of a decision prefix; branches at the
	// bound are truncated (counted, never expanded).
	MaxDepth int
	// MaxStates bounds the number of distinct states expanded.
	MaxStates int
	// MaxSteps is the per-execution engine step bound (0 = engine
	// default). Schedules that hit it produce a counterexample.
	MaxSteps int
	// MaxTotalMoves, if positive, makes any reached state whose total
	// move count exceeds it a counterexample — a mechanical check of
	// the paper's move-complexity bounds along every schedule.
	MaxTotalMoves int
	// MaxDuration, if positive, bounds the search's wall-clock time.
	// When it expires the search stops where it is, with the abandoned
	// frontier counted as truncated branches: unlike a context
	// deadline, which aborts with the context's error, it is no error.
	// The search reads the clock each time it pops an item, so the stop
	// lands at the next pop.
	MaxDuration time.Duration
}

// Options bounds and tunes the search.
type Options struct {
	Budget
	// DisableReduction turns off the sleep-set reduction, leaving only
	// canonical-state caching. The reachable state set is identical;
	// only the work to cover it changes. Used to cross-check the
	// reduction.
	DisableReduction bool
	// Progress, if non-nil, receives periodic snapshots of the running
	// search: at the first pop 200ms or more after the search started
	// or after the previous snapshot returned, plus one final snapshot
	// as the search finishes, whose ledger is the report's. It is
	// called on the searching goroutine, between expansions, so a slow
	// callback stalls the search (and the next snapshot falls due 200ms
	// after it returns). No snapshots are delivered after Explore
	// returns.
	Progress func(Progress)
}

// Stats is the search's ledger: the one declaration of its counters,
// which the search increments in place and which Progress snapshots
// and the Report carry as they are. The JSON names are the report's.
type Stats struct {
	// States counts distinct canonical states expanded; Pruned counts
	// reached states that converged onto an already-explored one.
	States int `json:"states"`
	Pruned int `json:"pruned"`
	// SleepSkips counts transitions suppressed by the sleep-set
	// reduction.
	SleepSkips int `json:"sleep_skips"`
	// Replays counts expansions plus the from-root replays that confirm
	// a counterexample; StepsReplayed counts the atomic actions those
	// applied.
	Replays       int   `json:"replays"`
	StepsReplayed int64 `json:"steps_replayed"`
	// Terminals counts quiescent leaves reached (with repetition);
	// DistinctTerminals counts distinct terminal configurations.
	Terminals         int `json:"terminals"`
	DistinctTerminals int `json:"distinct_terminals"`
	// Truncated counts branches cut by MaxDepth, MaxStates or
	// MaxDuration; Deepest is the longest prefix expanded.
	Truncated int `json:"truncated"`
	Deepest   int `json:"deepest"`
}

// Progress is one live snapshot of a running search.
type Progress struct {
	// Homes is the placement being explored (Setup.Homes), so the
	// snapshots of searches running at once can be told apart.
	Homes []int `json:"homes"`
	// Stats is the ledger so far; the final snapshot's equals the
	// report's.
	Stats
	// Frontier is the number of work items waiting on the search's
	// stack.
	Frontier int `json:"frontier"`
	// Elapsed is the wall-clock time since the search started, in
	// nanoseconds on the wire (time.Duration's JSON encoding).
	Elapsed time.Duration `json:"elapsed"`
}

// Counterexample is a concrete schedule defeating the checked property.
type Counterexample struct {
	// Prefix holds the decision indices from the initial configuration.
	Prefix []int
	// Schedule holds the chosen atomic action at each decision, so the
	// run can be replayed (sim.NewControlled(Prefix)) or read directly.
	Schedule []sim.Choice
	// Reason says what failed: a non-uniform terminal configuration, an
	// agent program error, or an exceeded bound.
	Reason string
	// Positions are the agents' final nodes in the failing state.
	Positions []int
	// Result is the engine result of the failing replay.
	Result sim.Result
}

// String renders the counterexample as a replayable schedule listing.
func (c *Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample after %d decisions: %s\n", len(c.Schedule), c.Reason)
	for i, ch := range c.Schedule {
		switch ch.Kind {
		case sim.ChoiceFail:
			fmt.Fprintf(&b, "  decision %3d (choice %d): adversary fails the link leaving node %d (edge rank %d)\n",
				i, c.Prefix[i], ch.Node, ch.Edge)
			continue
		case sim.ChoiceRepair:
			fmt.Fprintf(&b, "  decision %3d (choice %d): adversary repairs the link leaving node %d (edge rank %d)\n",
				i, c.Prefix[i], ch.Node, ch.Edge)
			continue
		}
		verb := "arrives at"
		if ch.Kind == sim.ChoiceWake {
			verb = "wakes at"
		}
		fmt.Fprintf(&b, "  decision %3d (choice %d): agent %d %s node %d\n",
			i, c.Prefix[i], ch.Agent, verb, ch.Node)
	}
	fmt.Fprintf(&b, "  final positions: %v\n", c.Positions)
	return b.String()
}

// Report summarizes one exploration.
type Report struct {
	Stats
	// Complete is true when the search covered the entire schedule
	// space: nothing truncated and no early stop on a counterexample or
	// an expired budget.
	Complete bool
	// Counterexample is the first property violation found, or nil.
	Counterexample *Counterexample
}

// Explore runs the bounded model checker on the calling goroutine and
// returns its report. Property violations are reported in
// Report.Counterexample; an error is returned for invalid setups
// (including more than 64 agents and programs that are not
// checkpointable frames), or when ctx is cancelled mid-search (the
// partial report accompanies ctx's error).
//
// The report is deterministic: the search visits states in one fixed
// order, the lexicographic depth-first preorder of decision prefixes,
// so every field — visit-order counters included — is reproducible, and
// the reported counterexample is the first (lexicographically least)
// one explored.
func Explore(ctx context.Context, setup Setup, opts Options) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if setup.Programs == nil {
		return Report{}, fmt.Errorf("%w: nil program factory", ErrSetup)
	}
	if len(setup.Homes) > maxAgents {
		return Report{}, fmt.Errorf("%w: %d agents, at most %d", ErrSetup, len(setup.Homes), maxAgents)
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	opts.MaxDepth = min(opts.MaxDepth, math.MaxInt32) // cache entries store depths as int32
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	topo := setup.Topology
	if topo == nil {
		r, err := ring.New(setup.N)
		if err != nil {
			return Report{}, fmt.Errorf("%w: %v", ErrSetup, err)
		}
		topo = r
	}
	setup.N = topo.Size()
	setup.Topology = topo
	if setup.Property == nil {
		n := setup.N
		setup.Property = func(res sim.Result) string {
			// A quiescent state can hold agents frozen on failed links
			// that were never repaired; both termination definitions
			// require empty links, so such terminals are violations (on
			// a static topology quiescence implies empty queues and this
			// check never fires).
			if !res.QueuesEmpty {
				return "terminal configuration leaves agents frozen in transit on failed links"
			}
			if why := verify.ExplainNonUniform(n, res.Positions()); why != "" {
				return "terminal configuration not uniform: " + why
			}
			return ""
		}
	}
	if setup.Adversary != nil && len(setup.Faults) > 0 {
		return Report{}, fmt.Errorf("%w: Adversary and Faults are mutually exclusive", ErrSetup)
	}
	rankSrc, err := sim.RankSources(topo)
	if err != nil {
		return Report{}, fmt.Errorf("%w: %v", ErrSetup, err)
	}
	return run(ctx, setup, opts, rankSrc, faultBoundaries(setup.Faults))
}

// faultBoundaries returns the set of step counts at which a scheduled
// fault fires, i.e. the depths whose preceding action triggers a link
// mutation. Expanding a node at depth d may stratify on boundary d+1:
// its children are the actions at position d+1, and swapping a child
// with a grandchild (positions d+1 and d+2) is exactly the exchange the
// sleep-set machinery relies on — any event with Step == d+1 fires
// between them and breaks it.
func faultBoundaries(faults sim.FaultSchedule) map[int]bool {
	if len(faults) == 0 {
		return nil
	}
	b := make(map[int]bool, len(faults))
	for _, e := range faults {
		b[e.Step] = true
	}
	return b
}

// abort reasons, recorded by stop.
const (
	abortNone = iota
	abortBudget
	abortCtx
)

// run executes one search: it pops items off a LIFO stack until the
// stack is empty or the search stops.
func run(ctx context.Context, setup Setup, opts Options, rankSrc []int32, boundary map[int]bool) (Report, error) {
	x, rootItem, err := newExplorer(setup, opts, rankSrc, boundary)
	if err != nil {
		return Report{}, err
	}
	defer x.cache.release()

	// A context cancellation or an expired deadline — MaxDuration's or
	// the context's, whichever ends first — stops the search at the next
	// pop (see poll).
	x.done = ctx.Done()
	if end, ok := ctx.Deadline(); ok {
		x.deadline, x.deadlineAbort = end, abortCtx
	}
	if end := x.start.Add(opts.MaxDuration); opts.MaxDuration > 0 && (x.deadline.IsZero() || end.Before(x.deadline)) {
		x.deadline, x.deadlineAbort = end, abortBudget
	}
	if opts.Progress != nil {
		x.progress = time.AfterFunc(progressInterval, func() { x.due.Store(true) })
		defer x.progress.Stop()
	}

	x.stack = append(x.stack, rootItem)
	x.search()
	if x.abort == abortBudget {
		// The abandoned stack is cut search, same as a depth or state
		// bound; fold it in so the ledger owns up to the missing work.
		x.st.Truncated += len(x.stack)
	}
	if opts.Progress != nil {
		opts.Progress(x.snapshot())
	}
	if x.err != nil {
		return Report{}, x.err
	}
	rep := x.report()
	if x.abort == abortCtx {
		// The search can read the context's deadline off the clock before
		// the context's own timer fires; wait for it, so the caller sees
		// ctx.Err() set too.
		<-ctx.Done()
		return rep, ctx.Err()
	}
	return rep, nil
}

// newExplorer builds the search state for one run: the cache, the
// resident engine, and the root item holding its capture of the initial
// configuration.
func newExplorer(setup Setup, opts Options, rankSrc []int32, boundary map[int]bool) (*explorer, item, error) {
	x := &explorer{
		setup:    setup,
		opts:     opts,
		rankSrc:  rankSrc,
		boundary: boundary,
		cache:    newStateCache(),
		start:    time.Now(),
	}
	eng, err := x.newEngine()
	if err != nil {
		return nil, item{}, err
	}
	x.eng = eng
	return x, item{br: x.capture(eng, nil, nil), idx: -1, last: true}, nil
}

// stop records why the search stops — the first reason wins — and makes
// the search unwind.
func (x *explorer) stop(reason int) {
	if x.abort == abortNone {
		x.abort = reason
	}
	x.stopped = true
}

// report assembles the finished search's Report around its ledger.
// Every item a budget stop cuts is counted in Truncated, so a budget
// that expired after the last expansion cut nothing: that search is
// complete.
func (x *explorer) report() Report {
	return Report{
		Stats:          x.st,
		Complete:       x.st.Truncated == 0 && x.cex == nil && x.abort != abortCtx,
		Counterexample: x.cex,
	}
}

type explorer struct {
	setup Setup
	opts  Options
	// rankSrc maps an arrival's Choice.Edge rank to the tail node of
	// that directed edge (sim.RankSources) — the node whose out-link the
	// arrival pops. Basis of the per-edge independence relation.
	rankSrc []int32
	// boundary marks the step counts at which scheduled faults fire;
	// the reduction stratifies around them (see Setup.Faults).
	boundary map[int]bool

	cache *stateCache
	st    Stats
	start time.Time

	// What poll watches: the context's done channel, the search's
	// deadline (zero when it has none) with the abort reason it stands
	// for, and whether a Progress snapshot is due. The progress timer
	// (nil without Progress) sets due from its own goroutine; poll
	// clears it and re-arms the timer after each snapshot.
	done          <-chan struct{}
	deadline      time.Time
	deadlineAbort int
	progress      *time.Timer
	due           atomic.Bool

	// stopped makes the search unwind at its next check; abort says why
	// when the reason is a budget or the context.
	stopped bool
	abort   int

	// The resident engine sits wherever the last expansion left it;
	// every popped item restores its branch, and the in-place descent
	// below it never restores at all. path and kids are per-expansion
	// scratch space, which keeps the steady-state loop nearly
	// allocation-free.
	eng   *sim.Engine
	path  []int  // decisions from the root to the engine's state
	kids  []item // children built by makeChildren
	stack []item

	// free holds released branches for the next capture: a plain free
	// list, not a sync.Pool, whose victim cache would keep a finished
	// search's branches alive for up to two more GC cycles; this one is
	// freed with the explorer and never holds more than the search's
	// peak number of live branches.
	free []*branch

	cex *Counterexample
	err error
}

// item is one unit of search work: one transition out of a branch —
// taking choice idx at the branch's decision point — plus the sleep set
// in force at the state it reaches (an agent bitmask, held by value).
// Expanding it restores the branch and applies exactly that one action.
// idx is -1 only for the root item, whose branch is the initial
// configuration itself. last marks the branch's final item on the
// stack: popping it frees the branch.
type item struct {
	br    *branch
	idx   int
	sleep sleepSet
	last  bool
}

// branch is a decision point the search fans out at: the engine
// checkpoint captured right after DecisionPoint, the enabled set that
// call returned, and the decision path from the root. Expansion
// captures one only where it pushes two or more children. The contents
// are immutable until the branch's last item is popped.
type branch struct {
	cp      sim.Checkpoint
	choices []sim.Choice
	path    []int
}

// capture records the engine's current decision point as a branch: its
// checkpoint, a copy of the enabled set DecisionPoint just returned
// there, and the decision path from the root. It draws on the free
// list, so once the list holds the search's peak number of live
// branches captures allocate nothing.
func (x *explorer) capture(eng *sim.Engine, enabled []sim.Choice, path []int) *branch {
	var br *branch
	if n := len(x.free); n > 0 {
		br = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		br = new(branch)
	}
	_ = eng.CheckpointTo(&br.cp) // every engine checkpoints: the error is always nil
	br.choices = append(br.choices[:0], enabled...)
	br.path = append(br.path[:0], path...)
	return br
}

// search pops and expands items, lexicographically least first, until
// the stack is empty or the search stops. Items abandoned by a stop
// never free their branches, which are garbage collected with the
// explorer instead.
func (x *explorer) search() {
	for !x.stopped && len(x.stack) > 0 {
		it := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		x.poll()
		x.expand(it)
	}
}

// poll stops the search when its context is done or its deadline has
// passed, and emits a Progress snapshot when one is due. The search
// calls it at every pop, so a stop lands at the next pop. A due
// snapshot costs one atomic load per pop: the channel receive a ticker
// needs takes the timer's lock and reads the clock.
func (x *explorer) poll() {
	select {
	case <-x.done:
		x.stop(abortCtx)
	default:
		if !x.deadline.IsZero() && !time.Now().Before(x.deadline) {
			x.stop(x.deadlineAbort)
		}
	}
	if x.due.Load() {
		x.due.Store(false)
		x.opts.Progress(x.snapshot())
		x.progress.Reset(progressInterval)
	}
}

// newEngine builds a fresh tracked engine over the setup (no scheduler:
// resident engines are driven through the step API, never Run).
func (x *explorer) newEngine() (*sim.Engine, error) {
	programs, err := x.setup.Programs()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSetup, err)
	}
	eng, err := sim.NewEngine(x.setup.Topology, x.setup.Homes, programs, sim.Options{
		MaxSteps:   x.opts.MaxSteps,
		Faults:     x.setup.Faults,
		Adversary:  x.setup.Adversary,
		TrackState: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSetup, err)
	}
	return eng, nil
}

// replay runs the decision prefix from the initial configuration on a
// fresh engine and returns the replay scheduler (whose Record carries
// the enabled sets), the run result, and Run's error.
func (x *explorer) replay(prefix []int) (*sim.Controlled, sim.Result, error) {
	programs, err := x.setup.Programs()
	if err != nil {
		return nil, sim.Result{}, fmt.Errorf("%w: %v", ErrSetup, err)
	}
	ctrl := sim.NewControlled(prefix)
	eng, err := sim.NewEngine(x.setup.Topology, x.setup.Homes, programs, sim.Options{
		Scheduler:  ctrl,
		MaxSteps:   x.opts.MaxSteps,
		Faults:     x.setup.Faults,
		Adversary:  x.setup.Adversary,
		TrackState: true,
	})
	if err != nil {
		return nil, sim.Result{}, fmt.Errorf("%w: %v", ErrSetup, err)
	}
	res, err := eng.Run()
	x.st.Replays++
	x.st.StepsReplayed += int64(res.Steps)
	return ctrl, res, err
}

// fail records a setup error and stops the search.
func (x *explorer) fail(err error) {
	x.err = err
	x.stopped = true
}

// foundCex records a violation and stops the search. The search visits
// prefixes in lexicographic order, so the first violation it finds is
// the least.
func (x *explorer) foundCex(prefix []int, ctrl *sim.Controlled, res sim.Result, reason string) {
	schedule := make([]sim.Choice, 0, len(prefix))
	for i, pick := range prefix {
		if i >= len(ctrl.Record) {
			break
		}
		schedule = append(schedule, ctrl.Record[i][pick])
	}
	x.cex = &Counterexample{
		Prefix:    slices.Clone(prefix[:len(schedule)]),
		Schedule:  schedule,
		Reason:    reason,
		Positions: res.Positions(),
		Result:    res,
	}
	x.stopped = true
}

// makeChildren builds the stack items for the unsuppressed enabled
// choices of a node being expanded, applying the sleep-set reduction
// and its fault-boundary stratification. A non-zero awake set restricts
// the expansion to those agents: the node is a revisit whose other
// transitions an earlier visit already explored (stateCache.visit).
// Each child names its choice by index into enabled; expand attaches
// the branch. The children slice is scratch reused across expansions
// (expand copies the items onto the stack, so it does not outlive the
// call).
func (x *explorer) makeChildren(enabled []sim.Choice, sleep, awake sleepSet, depth int) []item {
	// At a fault boundary the children's executions fire a mutation, so
	// no commutation across it may be recorded; inherited suppressions
	// still apply (their exchanges happened at shallower, checked
	// depths), but children start from empty sleep sets. Under an
	// adversary the boundary is any node with a down link (detected by
	// an enabled repair choice): agent actions there age the outage and
	// can flip the next decision point into a forced repair, so adjacent
	// exchanges are not enabledness-preserving. Incoming sleep sets at
	// such nodes are empty by construction — the edge into them was
	// either an adversary move (empty by the rule below) or came from a
	// node that was itself a boundary.
	boundary := x.boundary[depth+1]
	if x.setup.Adversary != nil && !boundary {
		for _, c := range enabled {
			if c.Kind == sim.ChoiceRepair {
				boundary = true
				break
			}
		}
	}
	children := x.kids[:0]
	// done is what a child's sleep set draws on: the agents asleep here
	// and the siblings this expansion has already pushed. Transitions an
	// earlier visit explored are deliberately left out — that visit slept
	// the awake ones below them, and this visit's children must be free
	// to take the exchanged order (Godefroid's state-caching argument).
	done := sleep
	for i, c := range enabled {
		if c.Agent >= 0 && sleep.has(c.Agent) {
			x.st.SleepSkips++
			continue
		}
		if awake != 0 && (c.Agent < 0 || !awake.has(c.Agent)) {
			continue // an earlier visit of this state explored c
		}
		var childSleep sleepSet
		if !x.opts.DisableReduction && !boundary && c.Agent >= 0 {
			// The child inherits every sleeping or already-pushed sibling
			// that commutes with c: executing it before or after c reaches
			// the same state, and the other order is (or was) explored
			// from this node. A sleeping transition stays enabled and
			// unchanged across the independent moves that carried it, so
			// its choice is read from this node's enabled set.
			// Adversary-move children (c.Agent < 0) inherit nothing: a
			// fail reshapes which agent exchanges are sound below it, so
			// their subtrees restart the reduction from scratch.
			for _, e := range enabled {
				if e.Agent >= 0 && done.has(e.Agent) && x.independent(e, c) {
					childSleep = childSleep.with(e.Agent)
				}
			}
		}
		children = append(children, item{idx: i, sleep: childSleep})
		if c.Agent >= 0 {
			// Only agent actions enter the commutation record: an
			// adversary move is never a sound suppression for a sibling
			// (its exchange changes the link state between the two
			// actions).
			done = done.with(c.Agent)
		}
	}
	x.kids = children
	return children
}

// expand runs one item and then keeps descending in place. It restores
// the item's branch and applies the item's one action; at every state
// it reaches from there it pushes children 2..c under a fresh branch —
// in reverse index order, so they pop lexicographically — and continues
// with child 1 on the engine as it stands, with no push, pop or
// restore. Every expansion but the root's thus applies exactly one
// action. Every counterexample is routed through one from-root replay
// (confirmCex), which builds the reported schedule.
func (x *explorer) expand(it item) {
	if x.halted() {
		return
	}
	eng := x.eng
	if err := eng.Restore(&it.br.cp); err != nil {
		x.fail(fmt.Errorf("%w: %v", ErrSetup, err))
		return
	}
	// The branch was captured right after its DecisionPoint, so the
	// restored engine sits at that decision point and br.choices[idx]
	// applies directly. Nothing of the branch is needed past this point.
	path := append(x.path[:0], it.br.path...)
	var c sim.Choice
	if it.idx >= 0 {
		c = it.br.choices[it.idx]
		path = append(path, it.idx)
	}
	if it.last {
		x.free = append(x.free, it.br)
	}
	sleep := it.sleep
	for {
		x.path = path
		depth := len(path)
		if depth > 0 {
			if err := eng.ApplyChoice(c); err != nil {
				if errors.Is(err, sim.ErrBadSetup) {
					x.fail(err)
					return
				}
				// A program failure: this schedule defeats the algorithm.
				x.confirmCex(slices.Clone(path))
				return
			}
			x.st.StepsReplayed++
		}
		enabled := eng.DecisionPoint()
		x.st.Replays++
		x.st.Deepest = max(x.st.Deepest, depth)
		quiesced := len(enabled) == 0
		if !quiesced && eng.Steps() >= eng.StepLimit() {
			// Run would abort this schedule with ErrStepLimit at the same
			// decision point.
			x.confirmCex(slices.Clone(path))
			return
		}

		key := eng.StateKey()
		if len(x.setup.Faults) > 0 {
			// With faults, the pending mutation suffix is a function of the
			// depth; fold it into the key so only equal-length prefixes can
			// converge (see Setup.Faults).
			key = mix64(key ^ (uint64(depth) + 1))
		}
		// Check the move bound before caching: move counts are
		// path-dependent (excluded from the state key), so the check must
		// see every reached state — including quiescent terminals and
		// pruned revisits.
		if x.opts.MaxTotalMoves > 0 && eng.TotalMoves() > x.opts.MaxTotalMoves {
			x.confirmCex(slices.Clone(path))
			return
		}
		outcome, nodeSleep, awake, firstTerminal := x.cache.visit(key, depth, sleep, quiesced, x.opts.MaxStates, &x.st)
		if outcome != visitExpand {
			return
		}
		if quiesced {
			if firstTerminal {
				if why := x.setup.Property(eng.ResultNow()); why != "" {
					x.confirmCex(slices.Clone(path))
				}
			}
			return
		}
		if depth >= x.opts.MaxDepth {
			x.st.Truncated++
			return
		}

		children := x.makeChildren(enabled, nodeSleep, awake, depth)
		if len(children) == 0 {
			return
		}
		if len(children) > 1 {
			br := x.capture(eng, enabled, path)
			rest := children[1:]
			for i := range rest {
				rest[i].br = br
			}
			slices.Reverse(rest)
			rest[0].last = true // pushed first, popped last
			x.stack = append(x.stack, rest...)
		}
		// Descend into the first child in place. Copy its choice now:
		// enabled is the engine's own choice list, which the next
		// ApplyChoice edits in place.
		c = enabled[children[0].idx]
		sleep = children[0].sleep
		path = append(path, children[0].idx)
		if x.halted() {
			return
		}
	}
}

// halted reports whether the search has been stopped. The expansion it
// cuts off — a popped item, or a first child never pushed — is counted
// as truncated when the stop is an expired budget, like the items left
// on the stack.
func (x *explorer) halted() bool {
	if !x.stopped {
		return false
	}
	if x.abort == abortBudget {
		x.st.Truncated++
	}
	return true
}

// confirmCex converts a violation the search detected into the reported
// counterexample by replaying the prefix once from the initial
// configuration: the replay's Record supplies the schedule (and its
// truncation on step-limit overruns), so the emitted counterexample
// never depends on which checkpoint the detection ran from, and a
// replay that does not reproduce the violation exposes a
// checkpoint/replay divergence.
func (x *explorer) confirmCex(prefix []int) {
	ctrl, res, err := x.replay(prefix)
	var why string
	switch {
	case ctrl == nil || errors.Is(err, sim.ErrBadSetup):
		x.fail(err)
		return
	case err != nil:
		// Program failures and step-limit overruns are findings, not
		// search errors: this schedule defeats the algorithm.
		why = err.Error()
	case x.opts.MaxTotalMoves > 0 && res.TotalMoves > x.opts.MaxTotalMoves:
		why = fmt.Sprintf("total moves %d exceed bound %d", res.TotalMoves, x.opts.MaxTotalMoves)
	case res.Quiesced:
		why = x.setup.Property(res)
	}
	if why == "" {
		// The confirming replay must reproduce the violation; reaching
		// here means the checkpointed and from-root executions disagree
		// on this prefix.
		x.fail(fmt.Errorf("%w: checkpoint/replay divergence on prefix %v", ErrSetup, prefix))
		return
	}
	x.foundCex(prefix, ctrl, res, why)
}

// snapshot assembles one Progress around the live ledger.
func (x *explorer) snapshot() Progress {
	return Progress{Homes: x.setup.Homes, Stats: x.st, Frontier: len(x.stack), Elapsed: time.Since(x.start)}
}

// mix64 finalizes a 64-bit value with the splitmix64 avalanche, used to
// separate depth-tagged cache keys from the raw configuration keys.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// independent reports whether two enabled atomic actions commute, using
// the engine's per-directed-edge FIFO structure. An atomic action at
// node v reads and writes exactly:
//
//   - node v's local state: tokens, the staying set, the whiteboard,
//     and the mailboxes of co-located agents (in-transit messages on
//     links toward v are invisible until popped);
//   - for an arrival, the head of the one link FIFO it pops — the edge
//     src -> v named by the choice's rank (home-buffer deliveries pop a
//     per-node buffer, which is node-v-local state);
//   - at most one out-link FIFO tail v -> w, if the program moves the
//     agent (which port it picks is a function of node-v state alone).
//
// Two actions a at node va and b at node vb therefore conflict only
// when they share one of those locations: the same node (va == vb,
// covering node state, both popping queues toward the same node, and
// both pushing out-links of the same node), or one's popped in-edge
// sourced at the other's node (a pop of src->va meets a potential push
// of vb->* exactly when src == vb, and symmetrically). Pushes onto
// *distinct* FIFOs commute outright — a tail insertion neither observes
// nor shifts another queue — and a push cannot disable any enabled
// action, so disjointness in this relation implies both orders execute
// and reach the same state.
//
// This is strictly finer than the previous footprint test ({v} ∪
// out-neighbourhood node bitsets): on a bidirectional ring, an action
// at u and an action at its neighbor v now commute unless one of them
// pops the very link joining them, roughly halving the conflict degree;
// on the unidirectional ring the two relations coincide (every arrival
// at v pops the unique link from v's predecessor). The multi-port
// lesson that forced the out-neighbourhood widening in the first place
// — u pushing onto u->w must conflict with w popping that same link —
// is preserved by the source clauses, and
// TestSleepSetSoundOnMultiPort/TestEdgeIndependenceSound regression-
// check the relation against a reduction-free reference search.
func (x *explorer) independent(a, b sim.Choice) bool {
	if a.Node == b.Node {
		return false
	}
	if a.Edge >= 0 && int(x.rankSrc[a.Edge]) == b.Node {
		return false
	}
	if b.Edge >= 0 && int(x.rankSrc[b.Edge]) == a.Node {
		return false
	}
	return true
}

// maxAgents is the largest agent count Explore accepts: one bit of a
// sleepSet per agent.
const maxAgents = 64

// sleepSet is the set of agents whose enabled actions are suppressed,
// one bit per agent id. Each agent has at most one enabled action, and a
// sleeping action stays enabled and unchanged across the independent
// moves that carried it, so the agent id names the action and its
// choice is read from the enabled set of the state the set applies to.
// Subset, intersection and difference are single bit operations, and
// items and cache entries hold the set by value.
type sleepSet uint64

func (s sleepSet) has(agent int) bool { return s&(1<<uint(agent)) != 0 }

func (s sleepSet) with(agent int) sleepSet { return s | 1<<uint(agent) }
