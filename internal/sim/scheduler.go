package sim

import "math/rand"

// ChoiceKind distinguishes the ways an atomic action can be enabled:
// the two agent actions, plus the adversary's link moves when the
// engine runs with Options.Adversary.
type ChoiceKind int

// Kinds of scheduling choices.
const (
	// ChoiceArrival schedules the head of a link's FIFO queue to arrive
	// at its destination node and take an atomic action there.
	ChoiceArrival ChoiceKind = iota + 1
	// ChoiceWake schedules a suspended agent with a non-empty mailbox to
	// receive its messages and take an atomic action.
	ChoiceWake
	// ChoiceFail is an adversary move failing a currently-up directed
	// edge (Agent is -1, Node the edge's tail, Edge its arrival rank).
	// Offered only by engines built with Options.Adversary, within the
	// AdversaryBudget.
	ChoiceFail
	// ChoiceRepair is an adversary move repairing a currently-down
	// directed edge (same addressing as ChoiceFail). While any link is
	// down, repairs are always offered — and once a link is overdue
	// (down for AdversaryBudget.RepairWithin actions), repairing the
	// lowest-rank overdue link is the *only* offered choice.
	ChoiceRepair
)

// Choice is one enabled atomic action the scheduler may pick.
type Choice struct {
	Kind  ChoiceKind
	Agent int // engine-internal agent index; -1 for adversary moves
	Node  int // arrival destination, the node a waking agent stays at, or an adversary move's edge tail
	// Edge identifies the link FIFO an arrival pops, or the directed
	// edge an adversary move mutates (an engine-internal directed-edge
	// id; multi-port topologies can have several distinct queues toward
	// the same node). It is -1 for wakes.
	Edge int
}

// Scheduler selects which enabled atomic action happens next. Pick
// receives the engine step number and the non-empty slice of enabled
// choices (in a deterministic order: arrivals by (destination node,
// link) ascending — which is destination ascending on in-degree-1
// topologies like the ring — then wakes by agent index ascending) and
// returns the index
// of the chosen one, or PickStop to end the run cleanly before
// quiescence. Implementations driving a full run must be fair: every
// persistently enabled agent must eventually be picked.
type Scheduler interface {
	Pick(step int, choices []Choice) int
}

// PickStop is the sentinel a Scheduler may return from Pick to stop the
// run at the current decision point without error. The engine reports
// such a run with Result.Quiesced == false; the configuration stays
// inspectable through Engine.Snapshot. Replay-driven tools (the
// schedule-space explorer) use it to advance an execution exactly to a
// decision point and no further.
const PickStop = -1

// RoundCounter is implemented by schedulers that group actions into
// synchronous rounds; the engine surfaces Rounds as the run's ideal-time
// measurement.
type RoundCounter interface {
	Rounds() int
}

// RoundRobin activates agents cyclically by agent index: after agent i
// acts, the next enabled agent in index order (wrapping) acts. It is the
// engine's default and is trivially fair.
type RoundRobin struct {
	last int
}

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Pick implements Scheduler.
func (s *RoundRobin) Pick(_ int, choices []Choice) int {
	bestIdx, bestKey := 0, int(^uint(0)>>1)
	for i, c := range choices {
		// Distance (cyclic by a large bound) from the last scheduled agent.
		key := c.Agent - s.last
		if key <= 0 {
			key += 1 << 30
		}
		if key < bestKey {
			bestKey, bestIdx = key, i
		}
	}
	s.last = choices[bestIdx].Agent
	return bestIdx
}

// Random picks a uniformly random enabled action. With a fixed seed the
// whole run is deterministic. Random scheduling is fair with
// probability 1.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random scheduler seeded with seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler.
func (s *Random) Pick(_ int, choices []Choice) int {
	return s.rng.Intn(len(choices))
}

// Synchronous emulates the paper's ideal-time measure: execution
// proceeds in rounds, and in each round every agent that was enabled at
// the start of the round takes exactly one atomic action. Rounds()
// reports how many rounds elapsed, which is the ideal time complexity
// (an agent moving continuously takes one move per round).
type Synchronous struct {
	// pending is indexed by agent id + 1 (grown on demand), so the -1 of
	// adversary moves has a slot too. A round set is never cleared: an
	// agent that leaves the enabled set before its turn (its link failed)
	// keeps its turn until it is enabled again.
	pending []bool
	rounds  int
}

// NewSynchronous returns a round-synchronous scheduler.
func NewSynchronous() *Synchronous { return &Synchronous{} }

// Pick implements Scheduler.
func (s *Synchronous) Pick(_ int, choices []Choice) int {
	for i, c := range choices {
		if j := c.Agent + 1; j < len(s.pending) && s.pending[j] {
			s.pending[j] = false
			return i
		}
	}
	// No agent from the frozen round set is still enabled: start a new
	// round with the currently enabled agents.
	s.rounds++
	for _, c := range choices {
		j := c.Agent + 1
		if j >= len(s.pending) {
			s.pending = append(s.pending, make([]bool, j+1-len(s.pending))...)
		}
		s.pending[j] = true
	}
	s.pending[choices[0].Agent+1] = false
	return 0
}

// Rounds implements RoundCounter.
func (s *Synchronous) Rounds() int { return s.rounds }

// DefaultAdversaryBound is the fairness bound an Adversarial scheduler
// uses when the caller does not choose one: an enabled agent may be
// passed over at most this many times in a row before it must run.
const DefaultAdversaryBound = 8

// Adversarial delays low-priority agents as long as its fairness bound
// allows: it prefers the enabled agent with the highest index, but any
// agent that has been passed over MaxSkip times in a row is scheduled
// immediately. This produces maximally skewed (yet fair) interleavings
// and long in-transit residence, stressing the algorithms' asynchrony
// tolerance.
type Adversarial struct {
	maxSkip int
	// skips is indexed by agent id (grown on demand); starved counts the
	// agents currently at or beyond the fairness bound, so the common
	// nobody-starved step skips the forced-candidate bookkeeping instead
	// of scanning a map per choice.
	skips   []int
	starved int
}

// NewAdversarial returns an adversarial scheduler with the given
// fairness bound (how many times an enabled agent may be passed over
// before it must run). Bounds < 1 are clamped to 1.
func NewAdversarial(maxSkip int) *Adversarial {
	if maxSkip < 1 {
		maxSkip = 1
	}
	return &Adversarial{maxSkip: maxSkip}
}

// skipsFor returns the skip counter of agent id; agents not yet in the
// table, and the online fault adversary's moves (Agent -1), have none.
func (s *Adversarial) skipsFor(id int) int {
	if id < 0 || id >= len(s.skips) {
		return 0
	}
	return s.skips[id]
}

// Pick implements Scheduler. One fused pass finds both candidates — the
// longest-starved agent at or beyond the bound (latest wins ties, as
// before) and the highest-index agent — and the forced half of the scan
// only runs while someone is actually starved. The online fault
// adversary's moves stay out of the skip bookkeeping: they are never
// starved, and the engine itself forces a repair that falls due.
func (s *Adversarial) Pick(_ int, choices []Choice) int {
	pick := 0
	forced, forcedSkips := -1, 0
	if s.starved > 0 {
		for i, c := range choices {
			if sk := s.skipsFor(c.Agent); sk >= s.maxSkip && sk >= forcedSkips {
				forced, forcedSkips = i, sk
			}
			if c.Agent > choices[pick].Agent {
				pick = i
			}
		}
	} else {
		for i, c := range choices {
			if c.Agent > choices[pick].Agent {
				pick = i
			}
		}
	}
	if forced >= 0 {
		pick = forced
	}
	for i, c := range choices {
		if c.Agent < 0 {
			continue
		}
		if c.Agent >= len(s.skips) {
			s.skips = append(s.skips, make([]int, c.Agent+1-len(s.skips))...)
		}
		if i == pick {
			if s.skips[c.Agent] >= s.maxSkip {
				s.starved--
			}
			s.skips[c.Agent] = 0
		} else {
			s.skips[c.Agent]++
			if s.skips[c.Agent] == s.maxSkip {
				s.starved++
			}
		}
	}
	return pick
}

// Controlled replays a fixed prefix of scheduling decisions and records
// the enabled choice set observed at every decision point. Decision i of
// the run picks choices[Prefix[i]]; at the decision point just past the
// prefix the run stops (PickStop). It is the replay primitive of the
// schedule-space explorer: a prefix of choice indices identifies one
// node of the schedule tree, and Record carries back the branching
// structure seen along the way.
type Controlled struct {
	// Prefix holds the decision indices to replay, in order.
	Prefix []int
	// Record accumulates a copy of the enabled choice set at each
	// decision point: Record[i] is the set decision i chose from, so
	// len(Record) == len(Prefix)+1 exactly when the prefix was exhausted
	// (a run that quiesces during the prefix records fewer).
	Record [][]Choice
}

// NewControlled returns a scheduler replaying the given decision prefix
// and then stopping.
func NewControlled(prefix []int) *Controlled {
	return &Controlled{Prefix: prefix}
}

// Pick implements Scheduler.
func (c *Controlled) Pick(_ int, choices []Choice) int {
	d := len(c.Record)
	c.Record = append(c.Record, append([]Choice(nil), choices...))
	if d < len(c.Prefix) {
		return c.Prefix[d]
	}
	return PickStop
}

var (
	_ Scheduler    = (*RoundRobin)(nil)
	_ Scheduler    = (*Random)(nil)
	_ Scheduler    = (*Synchronous)(nil)
	_ Scheduler    = (*Adversarial)(nil)
	_ Scheduler    = (*Controlled)(nil)
	_ RoundCounter = (*Synchronous)(nil)
)
