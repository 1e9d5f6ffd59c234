package sim

import (
	"fmt"

	"agentring/internal/memmeter"
	"agentring/internal/ring"
)

// FrameSaver is optionally implemented by Frames whose resumable state
// can be captured into, and restored from, a flat word buffer. It is
// the last ingredient of engine checkpointing: the engine's own state
// lives in flat arrays that copy mechanically, while a frame's state is
// algorithm-specific, so each frame serializes itself.
//
// SaveState appends every word of resumable state to buf and returns
// the extended slice; LoadState reads the same words back from the
// front of buf and returns how many it consumed. The two must be exact
// inverses: after LoadState(SaveState(nil)) the frame's next Step must
// behave identically. Frames that cannot promise this (or coroutine
// programs, which have no frame at all) simply don't implement the
// interface, and engines running them report Checkpointable() == false;
// such engines still Run, but the schedule explorer rejects them.
type FrameSaver interface {
	Frame
	// SaveState appends the frame's resumable state to buf.
	SaveState(buf []int) []int
	// LoadState restores the frame from the front of buf, returning the
	// number of words consumed.
	LoadState(buf []int) int
}

// Checkpoint is a compact copy of an Engine's mutable state between two
// atomic actions: the struct-of-arrays agent tables, intrusive queue
// links, token counts, enabled-set bitsets, init-suppression state, the
// dynamic-edge mask with its fault cursor, run counters, every agent
// frame's resumable state (via FrameSaver) and, under TrackState, the
// incrementally maintained configuration key with its k cached agent
// terms, so a restored engine's StateKey is current without a refold.
//
// A Checkpoint is engine-independent: Restore accepts it on any engine
// built with the same topology, homes, programs, and options — which is
// how the explorer's work-stealing frontier ships checkpoints between
// workers, each owning its own engine. All backing slices are reused by
// CheckpointTo, so a pooled Checkpoint reaches zero steady-state
// allocations once its capacities have grown to fit.
//
// Not captured (documented limits, all irrelevant to replay-driven
// search): scheduler state (Controlled/RoundRobin cursors live outside
// the engine; the step-driven DecisionPoint/ApplyChoice API needs no
// scheduler), trace sinks and observers (streams, not state), and
// coroutine stacks (engines with coroutine agents are not
// checkpointable at all).
type Checkpoint struct {
	n, k, m int // shape guard: nodes, agents, directed edges

	tokens      []int
	node        []ring.NodeID
	status      []Status
	inRank      []int32
	qrank       []int32
	qnext       []int32
	stayNext    []int32
	stayPrev    []int32
	moves       []int32
	agentErr    []error
	meter       []memmeter.Meter
	qhead       []int32
	qtail       []int32
	stayHead    []int32
	initPending []int32

	occupied  *bitset
	wakeable  *bitset
	ready     *bitset
	initNodes *bitset
	down      *bitset // nil when the engine never materialized the mask

	obsHash  []uint64 // nil when the engine does not track state
	mailHash []uint64
	key      uint64
	aterm    []uint64

	// Mailboxes flattened: mailLen[i] messages of agent i, concatenated
	// in agent order in mailMsgs. Message values are never mutated after
	// Broadcast, so the shallow copy is sound.
	mailLen  []int32
	mailMsgs []Message

	// frameWords concatenates every agent frame's SaveState output, in
	// agent order; LoadState consumes the same layout.
	frameWords []int

	downCount, epoch, faultIdx int
	steps, sent, delivered     int
	quiesced                   bool

	// Adversary state (empty when the engine runs without one): spent
	// fail moves, and the per-rank outage stamps overdue detection and
	// state keying derive ages from.
	advFails  int
	advDownAt []int32
}

// into replaces dst's contents with a copy of src, reusing capacity.
func into[T any](dst, src []T) []T { return append(dst[:0], src...) }

// cloneBitsetInto copies src into dst, allocating only when dst is
// missing or sized for a different universe.
func cloneBitsetInto(dst, src *bitset) *bitset {
	if dst == nil || dst.n != src.n {
		dst = newBitset(src.n)
	}
	dst.copyFrom(src)
	return dst
}

// Checkpointable reports whether the engine's full state can be
// captured by Checkpoint: every agent must execute as a Frame (not a
// coroutine) and every frame must implement FrameSaver. Coroutine
// agents park their state in a goroutine stack, which cannot be copied,
// so the schedule explorer refuses engines running any.
func (e *Engine) Checkpointable() bool {
	for i := range e.frame {
		if e.frame[i] == nil {
			return false
		}
		if _, ok := e.frame[i].(FrameSaver); !ok {
			return false
		}
	}
	return true
}

// Checkpoint captures the engine's state between atomic actions into a
// fresh Checkpoint. See CheckpointTo for the reuse form.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	cp := &Checkpoint{}
	if err := e.CheckpointTo(cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// CheckpointTo captures the engine's state between atomic actions into
// cp, reusing cp's backing storage (a pooled Checkpoint settles into
// zero per-capture allocations). It fails if the engine is not
// Checkpointable. The checkpoint may later be restored into this engine
// or any identically constructed one.
func (e *Engine) CheckpointTo(cp *Checkpoint) error {
	cp.n, cp.k, cp.m = e.et.n, len(e.node), e.et.edges()

	cp.frameWords = cp.frameWords[:0]
	for i := range e.frame {
		fs, ok := e.frame[i].(FrameSaver)
		if !ok {
			return fmt.Errorf("%w: agent %d is not checkpointable (coroutine or frame without FrameSaver)", ErrBadSetup, i)
		}
		cp.frameWords = fs.SaveState(cp.frameWords)
	}

	cp.tokens = into(cp.tokens, e.tokens)
	cp.node = into(cp.node, e.node)
	cp.status = into(cp.status, e.status)
	cp.inRank = into(cp.inRank, e.inRank)
	cp.qrank = into(cp.qrank, e.qrank)
	cp.qnext = into(cp.qnext, e.qnext)
	cp.stayNext = into(cp.stayNext, e.stayNext)
	cp.stayPrev = into(cp.stayPrev, e.stayPrev)
	cp.moves = into(cp.moves, e.moves)
	cp.agentErr = into(cp.agentErr, e.agentErr)
	cp.meter = into(cp.meter, e.meter)
	cp.qhead = into(cp.qhead, e.qhead)
	cp.qtail = into(cp.qtail, e.qtail)
	cp.stayHead = into(cp.stayHead, e.stayHead)
	cp.initPending = into(cp.initPending, e.initPending)

	cp.occupied = cloneBitsetInto(cp.occupied, e.occupied)
	cp.wakeable = cloneBitsetInto(cp.wakeable, e.wakeable)
	cp.ready = cloneBitsetInto(cp.ready, e.ready)
	cp.initNodes = cloneBitsetInto(cp.initNodes, e.initNodes)
	if e.down != nil {
		cp.down = cloneBitsetInto(cp.down, e.down)
	} else {
		cp.down = nil
	}

	if e.track {
		cp.obsHash = into(cp.obsHash, e.obsHash)
		cp.mailHash = into(cp.mailHash, e.mailHash)
		cp.aterm = into(cp.aterm, e.aterm)
	} else {
		cp.obsHash, cp.mailHash, cp.aterm = nil, nil, nil
	}
	cp.key = e.key

	cp.mailLen = cp.mailLen[:0]
	cp.mailMsgs = cp.mailMsgs[:0]
	for i := range e.mailbox {
		cp.mailLen = append(cp.mailLen, int32(len(e.mailbox[i])))
		cp.mailMsgs = append(cp.mailMsgs, e.mailbox[i]...)
	}

	cp.downCount = e.downCount
	cp.epoch = e.epoch
	cp.faultIdx = e.faultIdx
	cp.steps = e.steps
	cp.sent = e.sent
	cp.delivered = e.delivered
	cp.quiesced = e.quiesced
	cp.advFails = e.advFails
	cp.advDownAt = into(cp.advDownAt, e.advDownAt)
	return nil
}

// Restore rewinds (or fast-forwards) the engine to a previously
// captured checkpoint. The engine must have the same shape as the one
// the checkpoint was taken from — same topology, agent count, programs,
// and TrackState setting — which Restore checks cheaply; restoring a
// checkpoint into a structurally different engine is a setup error.
//
// Restore composes with the step-driven API: after Restore, the next
// DecisionPoint returns exactly the enabled set the source engine saw
// at capture time, and identical choice sequences lead to byte-
// identical traces, snapshots, and results (the checkpoint/replay
// cross-check tests pin this). A checkpoint captured after
// DecisionPoint restores that decision point, so ApplyChoice of any
// choice it returned is valid without calling DecisionPoint again.
func (e *Engine) Restore(cp *Checkpoint) error {
	if cp.n != e.et.n || cp.k != len(e.node) || cp.m != e.et.edges() {
		return fmt.Errorf("%w: checkpoint shape (n=%d k=%d m=%d) does not match engine (n=%d k=%d m=%d)",
			ErrBadSetup, cp.n, cp.k, cp.m, e.et.n, len(e.node), e.et.edges())
	}
	if e.track != (cp.obsHash != nil) {
		return fmt.Errorf("%w: checkpoint TrackState mismatch", ErrBadSetup)
	}

	off := 0
	for i := range e.frame {
		fs, ok := e.frame[i].(FrameSaver)
		if !ok {
			return fmt.Errorf("%w: agent %d is not checkpointable (coroutine or frame without FrameSaver)", ErrBadSetup, i)
		}
		off += fs.LoadState(cp.frameWords[off:])
	}
	if off != len(cp.frameWords) {
		return fmt.Errorf("%w: frame state layout mismatch (%d of %d words consumed)", ErrBadSetup, off, len(cp.frameWords))
	}

	e.tokens = into(e.tokens, cp.tokens)
	e.node = into(e.node, cp.node)
	e.status = into(e.status, cp.status)
	e.inRank = into(e.inRank, cp.inRank)
	e.qrank = into(e.qrank, cp.qrank)
	e.qnext = into(e.qnext, cp.qnext)
	e.stayNext = into(e.stayNext, cp.stayNext)
	e.stayPrev = into(e.stayPrev, cp.stayPrev)
	e.moves = into(e.moves, cp.moves)
	e.agentErr = into(e.agentErr, cp.agentErr)
	e.meter = into(e.meter, cp.meter)
	e.qhead = into(e.qhead, cp.qhead)
	e.qtail = into(e.qtail, cp.qtail)
	e.stayHead = into(e.stayHead, cp.stayHead)
	e.initPending = into(e.initPending, cp.initPending)

	e.occupied.copyFrom(cp.occupied)
	e.wakeable.copyFrom(cp.wakeable)
	e.ready.copyFrom(cp.ready)
	e.initNodes.copyFrom(cp.initNodes)
	switch {
	case cp.down != nil:
		if e.down == nil {
			e.down = newBitset(e.et.edges())
		}
		e.down.copyFrom(cp.down)
	case e.down != nil:
		e.down.clear()
	}

	if e.track {
		e.obsHash = into(e.obsHash, cp.obsHash)
		e.mailHash = into(e.mailHash, cp.mailHash)
		e.aterm = into(e.aterm, cp.aterm)
	}
	e.key = cp.key

	moff := 0
	for i := range e.mailbox {
		l := int(cp.mailLen[i])
		if l == 0 {
			// Keep empty mailboxes nil: finishAction distinguishes nil from
			// empty when deciding whether a delivery pass happened.
			e.mailbox[i] = nil
		} else {
			e.mailbox[i] = append(e.mailbox[i][:0], cp.mailMsgs[moff:moff+l]...)
		}
		moff += l
	}

	e.downCount = cp.downCount
	e.epoch = cp.epoch
	e.faultIdx = cp.faultIdx
	e.steps = cp.steps
	e.sent = cp.sent
	e.delivered = cp.delivered
	e.quiesced = cp.quiesced
	e.advFails = cp.advFails
	if e.adv != nil {
		e.advDownAt = into(e.advDownAt, cp.advDownAt)
	}
	return nil
}

// DecisionPoint advances the engine to its next decision point and
// returns the enabled atomic actions — exactly the slice Run would hand
// the scheduler's Pick: due fault events are applied first, and when no
// action is enabled but fault events are still pending, time passes and
// the next batch force-fires (repairs need no agent's help). An empty
// return means the engine has quiesced.
//
// DecisionPoint/ApplyChoice are the scheduler-free driving API that
// replay tools use instead of Run: the caller is the scheduler. The
// returned slice is the engine's reusable buffer — valid until the next
// engine call. DecisionPoint is idempotent at a decision point, so
// restoring a checkpoint taken after one and calling it again returns
// the same set. A checkpoint captured after DecisionPoint restores that
// decision point, so ApplyChoice of any choice it returned is valid
// without calling DecisionPoint again
// (TestRestoredDecisionPointAppliesDirectly). The caller is
// responsible for the step-limit check Run performs (enabled choices
// with Steps() >= StepLimit() means a livelocked schedule); Observer
// callbacks and the round-robin fast path are Run-only machinery and do
// not apply here.
func (e *Engine) DecisionPoint() []Choice {
	e.applyDueFaults()
	choices := e.enabledChoices()
	for len(choices) == 0 && e.faultIdx < len(e.faults) {
		e.applyNextFaultBatch()
		choices = e.enabledChoices()
	}
	if e.adv != nil {
		choices = e.adversaryChoices(choices)
	}
	if len(choices) == 0 {
		e.quiesced = true
	}
	return choices
}

// ApplyChoice executes one enabled atomic action returned by the last
// DecisionPoint and advances the step counter. The error mirrors Run's:
// an agent program failure (or a desynchronized choice, wrapping
// ErrBadSetup) aborts the schedule.
func (e *Engine) ApplyChoice(c Choice) error {
	if err := e.activate(c); err != nil {
		return err
	}
	e.steps++
	return nil
}

// Steps returns the number of atomic actions executed so far.
func (e *Engine) Steps() int { return e.steps }

// StepLimit returns the engine's atomic-action budget (Options.MaxSteps
// or its default). Run aborts with ErrStepLimit when a decision point
// has enabled choices at or beyond the limit; step-driven callers apply
// the same rule themselves.
func (e *Engine) StepLimit() int { return e.maxStep }

// TotalMoves returns the sum of all agents' link traversals so far.
func (e *Engine) TotalMoves() int {
	total := 0
	for _, m := range e.moves {
		total += int(m)
	}
	return total
}

// ResultNow summarizes the run so far, exactly as Run's returned Result
// would if the run ended at the current decision point. Valid between
// atomic actions; Result.Quiesced is true once a DecisionPoint came up
// empty.
func (e *Engine) ResultNow() Result { return e.result() }

// StateKey returns Snapshot().Key() without materializing the snapshot.
// Under Options.TrackState — the only way the explorer builds engines —
// it is a field read: the engine keeps the XOR of Configuration.Key's
// terms current as every atomic action, fault and restore mutates the
// configuration, and folds only the online adversary's term (spent
// fails and the relative outage ages, which change with every step) at
// read time, in O(down links). An untracked engine computes
// Snapshot().Key(). TestStateKeyMatchesSnapshotKey, the root
// cross-checks and FuzzStateKey pin the equivalence at every decision
// point.
func (e *Engine) StateKey() uint64 {
	if !e.track {
		return e.snapshot().Key()
	}
	if e.adv == nil {
		return e.key
	}
	a := advTerm(e.advFails)
	if e.downCount > 0 {
		for r := e.down.next(0); r != -1; r = e.down.next(r + 1) {
			a = advAge(a, e.steps-int(e.advDownAt[r]))
		}
	}
	return e.key ^ a
}
