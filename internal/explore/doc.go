// Package explore is a bounded model checker for the simulation
// engine's schedule space. The paper's claims are universally
// quantified over asynchronous schedules — uniform deployment must hold
// under *every* fair interleaving, and the Theorem 5 impossibility says
// some schedule defeats any estimate-then-halt strategy — so sampling a
// handful of schedulers is not evidence. This package enumerates the
// schedule tree itself.
//
// # Search structure
//
// A node of the tree is a prefix of scheduling decisions (indices into
// the engine's deterministic enabled-choice order). Expanding a node
// applies exactly one engine action — the decision that leads into it —
// and asks the engine for the enabled set there: the search descends
// into each node's first child on the engine as it stands, and reaches
// any other child by restoring the checkpoint captured at its parent
// (see Checkpoints), which every agent's frame supports by saving its
// own state. One search runs on the calling goroutine over a LIFO
// stack, so it visits states in the lexicographic depth-first preorder
// of decision prefixes, and every field of its report, visit-order
// counters included, is reproducible. Parallelism lives one level up,
// in sweeps over many placements, whose searches are independent.
// Two reductions keep the tree small:
//
//   - canonical-state caching: every reached state is identified by
//     its canonical state key (sim.Configuration.Key over the visible
//     configuration plus the per-agent observation-history hashes that
//     Options.TrackState maintains; the engine keeps it current
//     incrementally, so reading it costs O(1) per expansion), and a
//     state already explored at the same or shallower depth with the
//     same or fewer suppressed transitions is pruned — converged
//     branches are never re-expanded, and a revisit that does wake
//     suppressed transitions expands only those (the revisit rule
//     below). The cache is 64 shards chosen by the key's low six bits;
//     a shard is a flat open-addressed table of 24-byte slots (key plus
//     16-byte entry) probed linearly from the key's remaining bits and
//     doubled at 3/4 load, so the cache's memory is exactly its slot
//     count times 24 bytes. Shards double one at a time, so a growing
//     cache never holds a whole old table next to its doubled
//     successor. On Linux a table of 2,048 slots or more is mapped
//     outside the Go heap and unmapped as soon as it doubles or the
//     search ends, so a large search's resident memory is its tables
//     plus a small heap, not whatever the collector's timing lets the
//     heap reach;
//   - a sleep-set-style partial-order reduction: commuting reorderings
//     of already-explored siblings are skipped, with commutation
//     decided by the per-directed-edge independence relation below.
//
// Sleep sets are agent bitmasks (one uint64), so Explore refuses
// setups with more than 64 agents with ErrSetup. An agent has at most
// one enabled action, and a sleeping action stays enabled and unchanged
// across the independent moves that carried it, so the agent id names
// it; the search reads the action itself from the enabled set of the
// state being expanded. Subset, intersection and the awake set below
// are single bit operations, and items and cache entries hold their
// sets by value.
//
// # The revisit rule (sleep sets with state caching)
//
// A cache entry keeps the intersection H of the sleep sets of every
// visit so far. A revisit with sleep set Z that is no shallower than
// the entry is pruned when H ⊆ Z. Otherwise it follows Godefroid's
// state-caching algorithm (P. Godefroid, Partial-Order Methods for the
// Verification of Concurrent Systems, LNCS 1032, 1996; P. Godefroid,
// G. J. Holzmann and D. Pirottin, "State-space caching revisited",
// FMSD 1995): the entry becomes H ∩ Z, and the visit expands only the
// awake set H \ Z — the transitions every earlier visit slept and this
// one does not. Each child's sleep set is built, as on a first visit,
// from H ∩ Z and the awake siblings pushed before it; the transitions
// earlier visits explored, agent actions and adversary moves alike, are
// neither re-pushed nor added to the new children's sleep sets.
//
// Soundness: the visits of one state run one after another, so their
// awake sets are disjoint; across all of them the explored transitions
// are exactly enabled \ ∩Zᵢ, every transition some visit did not sleep.
// What the rule changes is the sleep sets below: earlier visits slept
// the now-awake transitions throughout their children's subtrees, and
// leaving the earlier-explored transitions out of the new children's
// sleep sets lets those subtrees take the exchanged orders the earlier
// ones suppressed, which is Godefroid's argument that every reachable
// state is still visited. Shallower revisits — which matter only when
// MaxDepth cut the earlier subtree — keep the unrestricted expansion
// under H ∩ Z, as first visits do under their own sleep set.
// Each (state, transition) pair is therefore expanded at most once
// outside shallower revisits, so the reduced search expands no more
// items than the reduction-free one, which expands
// every pair of every reachable state; TestReductionConsistency checks
// that bound together with equal coverage over every small placement,
// algorithm and fault mode.
//
// # Checkpoints
//
// Replaying every prefix from the initial configuration would make a
// state cost O(depth) engine steps; checkpoints make every expansion
// cost exactly one applied action. The search owns one resident
// engine. Where an expansion fans out — two or more children survive
// the reduction — it captures a branch: a record of the engine
// checkpoint taken right after DecisionPoint, the enabled set that call
// returned, and the decision path from the root. It pushes children
// 2..c as items naming the branch and a choice index, in reverse order
// so they pop lexicographically, then descends into child 1 in place,
// on the engine as it stands, with no push, pop or restore; a node with
// a single child captures nothing. A popped item restores its branch
// and applies the one choice it names: the checkpoint restores the
// decision point itself (sim.Engine.Restore), so no second
// DecisionPoint, desynchronization check or step-limit check is
// needed, and the item's path is the branch's plus one index. The full
// path is copied only into scratch space, and cloned only when a
// counterexample needs confirming. The branch's last item, pushed
// first and so popped last, returns the branch to the explorer's free
// list once it has restored it, and every capture draws on that list,
// so steady-state expansion is allocation-light by construction (one
// list of recycled branches, reused scratch, bitmask sleep sets held by
// value), which BenchmarkExploreParallel's allocs/state metric gates in
// CI.
//
// Memory: a branch lives until its last item has been popped and
// restored. The stack pops depth-first, so every live branch sits at a
// fanning-out ancestor of the current state, one per such ancestor at
// most. Each branch holds a checkpoint (about 2.4 KB of heap at n=8
// with 8 agents) plus its path and choices. The free list never holds
// more than the search's peak number of live branches, and is freed
// with the explorer.
//
// Soundness reduces to the engine's restore ≡ replay guarantee
// (sim.Checkpoint; TestFrameCoroutineCheckpointCrossCheck): a restored
// engine is indistinguishable from one that executed the prefix.
// TestCheckpointReplayCrossCheck holds the whole search to a from-root
// referee — a plain depth-first search, written in the test, that
// reaches every state by replaying its prefix on engines running the
// paper-shaped reference bodies (internal/reference) and has no
// checkpoints, cache subsumption or sleep sets — on the state
// count, distinct terminals and verdict, per algorithm and fault
// timeline. Every violation the search detects is confirmed by one
// from-root replay before being reported: the replay builds the
// reported schedule, so the emitted counterexample never depends on
// which checkpoint the detection ran from, and a replay that does not
// reproduce the violation is a checkpoint/replay divergence, reported
// as an error.
//
// # Independence (soundness of the reduction)
//
// Two enabled actions are independent when they act at different nodes
// and neither pops the FIFO of a directed edge whose source is the
// other's node. An atomic action at v reads and writes node-v state,
// pops at most one in-edge FIFO of v, and pushes onto at most one
// out-edge of v; pushes onto distinct FIFOs commute, and a push can
// never disable an enabled action, so actions satisfying the relation
// commute on every substrate — unidirectional rings, bidirectional
// rings, tori, and trees alike. This per-edge relation is strictly
// finer than the out-neighbourhood footprints it replaced: neighbours
// acting over links that do not touch each other's node now commute.
// TestSleepSetSoundOnMultiPort and TestEdgeIndependenceSound
// regression-check the reduction against reduction-free reference
// searches; TestReductionConsistency does the same on the ring, and
// TestExhaustiveCleanAlgorithms proves the paper's algorithms
// counterexample-free with full coverage on every small-ring placement.
//
// # Dynamic topologies (fault schedules)
//
// Setup.Faults attaches a link failure/repair timeline applied
// identically in every execution, so the checker enumerates all agent
// interleavings around a fixed fault schedule. Because fault steps are
// indexed by atomic-action count (== decision depth), two of the static
// search's assumptions fail, and the search compensates:
//
//   - swapping two adjacent actions is only state-preserving when no
//     mutation fires between them, so the sleep-set reduction runs
//     depth-stratified: at any depth where the next action fires a
//     scheduled fault, children start from empty sleep sets and no
//     sibling commutation is recorded. Away from those boundary depths
//     the reduction applies in full — the fault state is then identical
//     in both interleavings, and frozen-link enabledness is a function
//     of that shared state. TestFaultReductionConsistency cross-checks
//     the stratified reduction against reduction-free searches;
//   - a configuration's future depends on the pending fault suffix,
//     i.e. on the depth, so cache keys additionally fold the depth and
//     convergence is only recognized between equal-length prefixes.
//
// A quiescent terminal with agents frozen on a never-repaired link
// fails the default property ("frozen in transit"), which is how a
// permanent failure surfaces as a counterexample.
// TestExploreTransientFaultNativeDeploys and
// TestExplorePermanentFaultCounterexampleReplays pin both directions,
// including replayability of the reported schedule.
//
// # The online adversary (faults as choice points)
//
// Setup.Adversary replaces the fixed timeline with a branching one:
// the engine offers ChoiceFail/ChoiceRepair moves alongside agent
// actions (sim.AdversaryBudget bounds concurrent outages, total fails,
// and forces repair of any link down RepairWithin actions), and the
// search explores every interleaving of faults and moves. A complete
// counterexample-free search is then a proof against *every* outage
// pattern within the budget, not one timeline. The two fixed-schedule
// compensations invert:
//
//   - sleep sets: adversary moves commute with nothing, so any node
//     whose enabled set contains a repair choice (i.e. some link is
//     down) is a boundary — children start with empty sleep sets and
//     no commutation is recorded there, and adversary-move children
//     always start empty. Where all links are up the static per-edge
//     independence argument applies unchanged; the incoming sleep set
//     at a boundary is empty by construction because sleep entries
//     only propagate along agent actions out of all-links-up states.
//     TestAdversaryReductionAndModeConsistency cross-checks reduced and
//     reduction-free searches against the from-root referee;
//   - cache keys: there is no pending timeline, so nothing depends on
//     absolute depth. A state's future is the visible configuration
//     plus the adversary's relative state, which sim.Engine.StateKey
//     folds directly (spent fail count, per-down-link age in rank
//     order) — the explorer caches on that key with no depth fold and
//     keeps full cross-depth convergence, which is what makes the
//     augmented space tractable.
//
// TestAdversaryCrossCheckBruteForce referees the whole construction
// against brute force: the adversary search's set of reachable
// terminal position vectors must equal the union over an explicit
// enumeration of every fixed single-outage FaultSchedule within the
// budget.
//
// # Verdicts
//
// Terminal (quiescent) states are checked against the property (default:
// empty links + uniform deployment); the first violating terminal,
// agent failure, step-limit overrun, or move-bound overrun becomes the
// reported counterexample, with the full decision schedule that reaches
// it. A Report with Complete == true and no counterexample is a
// mechanically checked proof over the entire schedule space of that
// initial configuration. Budgets (states, depth, wall clock) truncate
// honestly: the abandoned frontier is counted and Complete is false.
package explore
