// Package sim executes mobile-agent algorithms on an asynchronous
// message-passing substrate with exactly the semantics of Section 2 of
// the paper, generalized from the unidirectional ring to any directed
// Topology and, since the dynamic-topology layer, to edge sets that
// change over time.
//
// # Execution model
//
// Each agent executes a Program against the API, one agent at a time,
// so executions are deterministic given a scheduler. The engine
// executes one agent form, the Frame: each Program builds its agent's
// frame once, at construction, and an activation is one Step call,
// which performs the action's local computation and returns how the
// action ends. There is no goroutine and no stack per agent: an agent's
// whole state is its frame's, which saves and loads itself as plain
// ints (Frame.SaveState, Frame.LoadState). One step function vets every
// returned Action: it checks a move's out-port, folds the action's
// opcode into the agent's state hash, turns a panic into a program
// error and rejects an unknown kind (TestOneErrorContract). The
// paper-shaped, sequential form of each production algorithm lives in
// internal/reference, which only tests import, and the cross-checks
// hold every frame to it. An activation is one atomic action:
//
//  1. the agent arrives at a node (popped from the head of one incoming
//     FIFO link queue) or is woken while staying at a node,
//  2. all queued messages are delivered (and any it does not consume
//     are dropped — "after taking an atomic action, the agent has no
//     message"),
//  3. the agent performs local computation (token release, broadcasts
//     to co-located staying agents), and
//  4. it either moves (appending itself to the tail of an outgoing FIFO
//     link), suspends awaiting a message, or halts (ActionMove,
//     ActionAwait, ActionDone).
//
// # Invariants
//
// The engine maintains, and the Auditor (snapshot.go) mechanically
// checks across snapshots, the model's execution invariants:
//
//   - every agent occupies exactly one place (staying at a node or
//     inside exactly one link queue);
//   - tokens are indelible (per-node counts never decrease);
//   - at most one agent moves per atomic action;
//   - halted agents never change state or position again;
//   - each per-directed-edge queue evolves only by popping its head or
//     pushing at its tail (FIFO links), and a *failed* edge's queue
//     never pops while it stays down (frozen links).
//
// The paper's initial-configuration assumption — "the resident acts
// first at its home" — is enforced explicitly: each agent starts in its
// home node's incoming buffer and link arrivals into that node are
// suppressed until the resident's first activation. On in-degree-1
// substrates this coincides with the node's single link FIFO; on
// multi-port substrates the explicit buffer is what stops a visitor
// from slipping past (a violation the schedule explorer found before
// any human did). TestHomeNodeFirstAction and
// TestHomeBufferBlocksMultiPortVisitors pin it; TestFIFONoOvertaking
// and TestPerEdgeQueuesAreIndependent pin the link model.
//
// # Performance shape
//
// The engine never rescans the topology: the edge set is flattened at
// construction into rank-indexed dense arrays (topology.go), and all
// per-agent state lives in parallel arrays (structure-of-arrays) rather
// than per-agent objects. Occupied edges, wakeable agents, and the
// ready set (heads of up edges plus wakeable agents — exactly the
// enabled actions once initialization drains) are hierarchical word
// bitsets (bitset.go) maintained incrementally; under the round-robin
// scheduler the engine picks the next enabled action branch-free with a
// cyclic next-set-bit scan and never materializes a choice slice at
// all. Agents resume without any goroutine hand-off. The result
// is a steady-state loop with no allocation, no interface calls, and
// tens of nanoseconds per atomic action up to million-node rings
// (~48 retained bytes per node). BenchmarkSteadyState — now spanning
// n=1e3..1e6, with a separate 1e7 XL row — and its BiRing / Torus /
// DynRing variants measure this; the committed BENCH_baseline.json
// gates ns/step, B/op, allocs/op, and bytes/node in CI.
//
// Every other scheduler picks from the enabled-choice list, which the
// engine keeps current across atomic actions rather than rebuilding it
// at each decision point. The list is ordered by one integer key per
// choice (choiceKey: home activations and arrivals by destination node,
// then in-edge, then wakes by agent), and each of the six places that
// change what is enabled — an enqueue onto an empty link, a dequeue, a
// resident's first home activation, a wake, a broadcast that makes an
// agent wakeable, and SetEdgeState — inserts, removes or re-heads its
// one entry. Each agent has at most one entry, and every entry that
// lands in the list records its index per agent, so an existing entry
// is found through its agent in O(1) (listIndex); only a new entry is
// placed by binary search on the key. An arrival that drains its link
// leaves its entry's slot to the rest of its action, so an agent
// moving on to the next empty link re-keys that slot in place. A
// decision therefore costs O(1) to find its entries, plus at most a
// search for a new one and a move of the list's tail, not the O(k)
// bitset walk a rebuild takes, and a repeat DecisionPoint is a slice
// return. Restore and the round-robin fast path do not patch: they
// mark the list stale, and the next DecisionPoint rebuilds it once
// (enabledChoices, which TestChoiceListMatchesRebuild also uses as the
// oracle of every patch). BenchmarkSteadyStateRandom gates this path.
//
// # Checkpoint/restore
//
// The engine's mutable state is declared once, in engineState
// (engine.go): the SoA agent arrays, per-edge FIFO links, staying
// lists, hierarchical bitsets, fault epoch/down-mask/cursor, adversary
// state, run counters and the configuration key. Engine embeds it, and
// a Checkpoint is a copy of it plus the wakeable agents' mailboxes and
// the agents' program state, each flattened into one slice
// (checkpoint.go). One function, layout, allocates engineState for both:
// every int32 table is a view into one []int32 arena, and every uint64
// table and the words of every bitset views into one []uint64 arena, so
// copyState, the one copier behind Engine.Checkpoint / CheckpointTo and
// Restore, is a copy per arena, one per remaining typed table (tokens,
// nodes, statuses, meters, and program errors only while either side
// holds one) and the scalars. A checkpoint is laid out on its first
// capture and reused after that, so a pooled checkpoint costs zero
// steady-state allocations, and Restore accepts only a checkpoint of
// the engine's shape: n, k, m and both arena lengths, which pin
// TrackState and the adversary too. TestCopyStateCopiesEveryField fills
// every field of a laid-out state by reflection and requires an exact
// copy that shares no storage; TestLayoutCarvesDisjointViews requires
// the views to tile their arenas. Mail is flattened for the wakeable
// agents only: a mailbox is non-nil exactly while its agent is
// wakeable. Program state is each frame's SaveState words, concatenated
// in agent order, so every engine checkpoints.
// TestCheckpointRestoreContinuesIdentically holds a checkpoint-round-
// tripped engine to the uninterrupted one, and
// TestFrameCoroutineCheckpointCrossCheck holds both to the reference at
// every decision point, which is the "restore ≡ replay" guarantee the
// explorer builds on.
//
// Alongside restore sits the step-driven control surface the explorer
// uses instead of Run, and that Run's own decision loop is built on:
// DecisionPoint fires due faults and returns the enabled choices,
// ApplyChoice executes one, and StateKey returns the canonical
// configuration key (identical to Snapshot().Key()) without
// materializing a snapshot. A checkpoint captured after DecisionPoint
// restores that decision point, so ApplyChoice of any choice it
// returned is valid without calling DecisionPoint again: the explorer
// applies exactly one action per restore.
//
// # State identity
//
// The configuration key is Zobrist-style: the XOR of one term per
// component (statehash.go) — per agent its id, status, staying node (-1
// in transit) and state hash; per queued agent its edge rank, id and
// the agent ahead of it (-1 at the head); per node holding tokens the
// node and count; per failed link its rank; and, under an adversary,
// one term for the spent fails and the relative outage ages. Each term
// encodes its fields injectively (fold depends only on the sum of its
// arguments, so fields get their own fold or disjoint bit ranges, never
// a shared sum), so no two terms of a configuration coincide and XOR
// never cancels a live component; TestStateKeyTermsInjective checks
// this exhaustively over small ranges. Configuration.Key computes the
// sum from scratch and is the oracle. Under TrackState the engine keeps
// the sum current instead, so StateKey is a field read plus the
// adversary term (whose ages change every step) folded in O(down
// links); checkpoints carry the key and the cached agent terms.
//
// The rule that keeps the two equal: every site that mutates a keyed
// component updates the key in the same step. Today those sites are
// enqueue and dequeue (a pop also changes the new head's predecessor),
// the end of finishAction (the actor's status, staying node,
// observation hash and mailbox), each Broadcast recipient (its mailbox
// hash), ReleaseToken and SetEdgeState (fixed faults and
// the adversary alike); NewEngine seeds the agent terms and Restore
// copies key and terms back. A new mutation site must join the list,
// and a new mutable field joins engineState and layout (a table) or
// copyState (a scalar), so checkpoints carry it without a second list.
// TestStateKeyMatchesSnapshotKey, the root cross-checks (at every
// decision of driveStepwise, after every Run of runBoth) and
// FuzzStateKey (fuzzed choices, checkpoints, restores and fresh-engine
// resumes) compare StateKey with Snapshot().Key().
//
// Under TrackState a key also fixes the depth, the number of atomic
// actions executed, up to 64-bit collisions. Every agent action changes
// the actor's observation hash or halts it: stepAgent folds opMove or
// opAwait after the action's observations, and ActionDone changes the
// status, after which the agent never acts again. So an agent's term
// fixes how many actions it has taken. Under an adversary the key also
// holds the spent fails and the down set, which fix the adversary's
// moves: the fails, plus the repairs, which number the fails minus the
// links still down. The schedule-space explorer relies on this: its
// cache stores no depth (internal/explore, "One key, one depth").
//
// # Dynamic topologies
//
// Options.Faults (or Engine.SetEdgeState) fails and repairs individual
// directed edges between atomic actions. A failed edge freezes its
// FIFO: the head's arrival leaves the enabled set, pushes still append,
// nothing is lost, and repair restores the queue intact — see
// FaultSchedule (faults.go) for the full semantics, including the
// fast-forward rule that fires pending mutations when no action is
// enabled. Each effective mutation stamps a new epoch; the edge table
// itself never rebuilds. faults_test.go covers the semantics;
// TestDynamicEngineMatchesGoldenTraces (package agentring) proves an
// all-links-up schedule is byte-identical to the static engine.
//
// # Fairness
//
// Fairness is the scheduler's contract: every enabled agent must be
// chosen infinitely often. All schedulers in this package are fair; the
// adversarial one is fair with the maximum skew its bound allows, and
// Controlled is the replay primitive the schedule-space explorer
// (internal/explore) drives.
package sim
