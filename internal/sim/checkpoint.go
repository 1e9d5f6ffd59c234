package sim

import "fmt"

// Checkpoint is a copy of an Engine's configuration between two atomic
// actions: its engineState (agent tables, queue links, token counts,
// enabled-set bitsets, init suppression, the dynamic-edge mask with its
// fault cursor, adversary state, run counters and, under TrackState,
// the configuration key with its cached agent terms), laid out as the
// engine's is, so a capture or a restore is one copy per arena and per
// typed table; plus the wakeable agents' mailboxes and every agent
// frame's resumable state (Frame.SaveState), each flattened into one
// slice.
//
// A Checkpoint is engine-independent: Restore accepts it on any engine
// built with the same topology, homes, programs, and options — which is
// how the explorer's work-stealing frontier ships checkpoints between
// workers, each owning its own engine. CheckpointTo lays a checkpoint
// out on its first capture (or the first from an engine of another
// shape) and reuses every backing slice after that, so a pooled
// Checkpoint reaches zero steady-state allocations once its mail and
// frame buffers have grown to fit.
//
// Not captured (documented limits, all irrelevant to replay-driven
// search): scheduler state (Controlled/RoundRobin cursors live outside
// the engine; the step-driven DecisionPoint/ApplyChoice API needs no
// scheduler), and trace sinks and observers (streams, not state).
type Checkpoint struct {
	state engineState

	// Mailboxes flattened: mailLen[j] messages of the j-th agent of
	// state.wakeable (the agents whose mailboxes are non-nil), ascending,
	// concatenated in mailMsgs. Message values are never mutated after
	// Broadcast, so the shallow copy is sound.
	mailLen  []int32
	mailMsgs []Message

	// frameWords concatenates every agent frame's SaveState output, in
	// agent order; LoadState consumes the same layout.
	frameWords []int
}

// copyState makes dst a copy of src that shares no storage with it.
// Both must be laid out alike (layout with the same arguments).
func copyState(dst, src *engineState) {
	copy(dst.i32, src.i32)
	copy(dst.u64, src.u64)
	copy(dst.tokens, src.tokens)
	copy(dst.node, src.node)
	copy(dst.status, src.status)
	copy(dst.meter, src.meter)
	if dst.failed > 0 || src.failed > 0 {
		// The one table of pointers, so its copy pays write barriers:
		// skipped while both sides hold only nil.
		copy(dst.agentErr, src.agentErr)
	}
	dst.failed = src.failed
	dst.occupied.count, dst.wakeable.count, dst.ready.count = src.occupied.count, src.wakeable.count, src.ready.count
	dst.initNodes.count, dst.down.count = src.initNodes.count, src.down.count
	dst.downCount, dst.epoch, dst.faultIdx = src.downCount, src.epoch, src.faultIdx
	dst.advFails = src.advFails
	dst.steps, dst.sent, dst.delivered, dst.quiesced = src.steps, src.sent, src.delivered, src.quiesced
	dst.key = src.key
}

// shape is what a checkpoint must share with an engine to restore into
// it: n, k, m and the lengths of the two arenas, which also pin
// TrackState and the adversary, the options that add tables.
func (s *engineState) shape() [5]int {
	return [5]int{len(s.tokens), len(s.node), s.occupied.n, len(s.i32), len(s.u64)}
}

// Checkpointable reports true: every agent is a Frame that saves its
// own state, so every engine can be captured. It stays only for the
// repository benchmark's step-API probe (bench/probe.go), which still
// asks.
func (e *Engine) Checkpointable() bool { return true }

// Checkpoint captures the engine's state between atomic actions into a
// fresh Checkpoint. See CheckpointTo for the reuse form.
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{}
	_ = e.CheckpointTo(cp) // every engine checkpoints: the error is always nil
	return cp
}

// CheckpointTo captures the engine's state between atomic actions into
// cp, reusing cp's backing storage (a pooled Checkpoint settles into
// zero per-capture allocations). The checkpoint may later be restored
// into this engine or any identically constructed one. Every engine
// checkpoints, so the error is always nil.
func (e *Engine) CheckpointTo(cp *Checkpoint) error {
	cp.frameWords = cp.frameWords[:0]
	for _, f := range e.frame {
		cp.frameWords = f.SaveState(cp.frameWords)
	}

	if cp.state.shape() != e.shape() {
		cp.state.layout(e.et.n, len(e.node), e.et.edges(), e.track, e.adv != nil)
	}
	copyState(&cp.state, &e.engineState)

	cp.mailLen = cp.mailLen[:0]
	cp.mailMsgs = cp.mailMsgs[:0]
	for id := e.wakeable.next(0); id != -1; id = e.wakeable.next(id + 1) {
		cp.mailLen = append(cp.mailLen, int32(len(e.mailbox[id])))
		cp.mailMsgs = append(cp.mailMsgs, e.mailbox[id]...)
	}
	return nil
}

// Restore rewinds (or fast-forwards) the engine to a previously
// captured checkpoint. The engine must have the same shape as the one
// the checkpoint was taken from — same topology, agent count, programs,
// TrackState and adversary — which Restore checks cheaply; restoring a
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
	if cp.state.shape() != e.shape() {
		return fmt.Errorf("%w: checkpoint shape %v does not match engine %v (n, k, m, int32 and uint64 arena words)",
			ErrBadSetup, cp.state.shape(), e.shape())
	}
	off := 0
	for _, f := range e.frame {
		off += f.LoadState(cp.frameWords[off:])
	}
	if off != len(cp.frameWords) {
		return fmt.Errorf("%w: frame state layout mismatch (%d of %d words consumed)", ErrBadSetup, off, len(cp.frameWords))
	}

	// The choice list is rebuilt, once, by the next DecisionPoint.
	e.listed = false
	// Only wakeable agents hold mail, before the copy and after it. A
	// mailbox the checkpoint refills keeps its backing array.
	for id := e.wakeable.next(0); id != -1; id = e.wakeable.next(id + 1) {
		if !cp.state.wakeable.has(id) {
			e.mailbox[id] = nil
		}
	}
	copyState(&e.engineState, &cp.state)
	moff := 0
	for j, id := 0, e.wakeable.next(0); id != -1; j, id = j+1, e.wakeable.next(id+1) {
		l := int(cp.mailLen[j])
		e.mailbox[id] = append(e.mailbox[id][:0], cp.mailMsgs[moff:moff+l]...)
		moff += l
	}
	return nil
}

// DecisionPoint advances the engine to its next decision point and
// returns the enabled atomic actions: due fault events are applied
// first, and when no action is enabled but fault events are still
// pending, time passes and the next batch force-fires (repairs need no
// agent's help); under an adversary its moves follow the agents'. An
// empty return means the engine has quiesced.
//
// DecisionPoint/ApplyChoice are the step API Run's decision loop is
// built on, and the scheduler-free driving API replay tools use instead
// of Run: the caller is the scheduler. The returned slice is the
// engine's own enabled list, which the engine keeps current in place:
// ApplyChoice, Restore and SetEdgeState change it, so it is valid only
// until the next engine call, and a caller that needs a choice or the
// set afterwards copies it first; it must not be modified. A repeat
// call at the same decision point returns the list as it stands, and
// the first call after a Restore or a round-robin Run rebuilds it from
// the bitsets. DecisionPoint is idempotent at a decision point, so
// restoring a checkpoint taken after one and calling it again returns
// the same set. A checkpoint captured after DecisionPoint restores that
// decision point, so ApplyChoice of any choice it returned is valid
// without calling DecisionPoint again
// (TestRestoredDecisionPointAppliesDirectly). The caller is
// responsible for the step-limit check Run performs (enabled choices
// with Steps() >= StepLimit() means a livelocked schedule); Observer
// callbacks and the round-robin fast path are Run-only machinery.
func (e *Engine) DecisionPoint() []Choice {
	e.applyDueFaults()
	if !e.listed {
		e.choices = e.enabledChoices(e.choices[:0])
		e.listed = true
	}
	for len(e.choices) == 0 && e.faultIdx < len(e.faults) {
		e.applyNextFaultBatch()
	}
	choices := e.choices
	if e.adv != nil {
		choices = e.adversaryChoices()
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
