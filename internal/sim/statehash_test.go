package sim

import (
	"fmt"
	"testing"

	"agentring/internal/ring"
)

// TestStateKeyTermsInjective pins the rule the XOR key rests on: no two
// terms of one configuration may coincide, or they cancel. Over small
// exhaustive ranges every term of every family must be distinct from
// every other; an encoding that adds two fields into one fold argument
// (fold depends only on h+v) fails here, while a referee comparing whole
// searches does not notice it.
func TestStateKeyTermsInjective(t *testing.T) {
	const lim = 48
	seen := make(map[uint64]string)
	add := func(term uint64, format string, args ...any) {
		t.Helper()
		what := fmt.Sprintf(format, args...)
		if prev, dup := seen[term]; dup {
			t.Fatalf("%s and %s share the term %#x", prev, what, term)
		}
		seen[term] = what
	}
	for id := 0; id < lim; id++ {
		for _, st := range []Status{StatusInTransit, StatusWaiting, StatusHalted} {
			for node := -1; node < lim; node++ {
				for hash := uint64(0); hash < 3; hash++ {
					add(agentTerm(id, st, node, hash), "agent(%d,%d,%d,%d)", id, st, node, hash)
				}
			}
		}
	}
	for r := 0; r < lim; r++ {
		for id := 0; id < lim; id++ {
			for pred := -1; pred < lim; pred++ {
				add(queueTerm(queueSeed(r), id, pred), "queue(%d,%d,%d)", r, id, pred)
			}
		}
		for tok := 1; tok < lim; tok++ {
			add(tokenTerm(r, tok), "token(%d,%d)", r, tok)
		}
		add(downTerm(r), "down(%d)", r)
	}
	if tokenTerm(5, 0) != 0 {
		t.Error("a node without tokens contributes a term")
	}

	// Two agents with equal state hashes waiting at nodes 1 and 2 must
	// not key like the same two agents swapped.
	swap := func(a, b int) Configuration {
		staying := make([][]int, 4)
		staying[a] = append(staying[a], 0)
		staying[b] = append(staying[b], 1)
		return Configuration{
			Statuses:    []Status{StatusWaiting, StatusWaiting},
			Tokens:      make([]int, 4),
			Staying:     staying,
			EdgeQueues:  make([][]int, 4),
			AgentHashes: []uint64{7, 7},
		}
	}
	if swap(1, 2).Key() == swap(2, 1).Key() {
		t.Error("swapping two equal-hash agents across nodes leaves the key unchanged")
	}
}

// stateKeyFixtures are the engines FuzzStateKey drives: the checkpoint
// fixture (walkers broadcasting to a listener around a transient link
// failure) and the adversary fixture.
var stateKeyFixtures = []func(t *testing.T) *Engine{
	cpSetup,
	func(t *testing.T) *Engine {
		return advSetup(t, AdversaryBudget{MaxConcurrent: 2, RepairWithin: 2, MaxTotal: 3})
	},
}

// FuzzStateKey holds the incrementally maintained key to its oracle,
// Snapshot().Key(), at every decision point of fuzzed schedules. The
// first byte picks the fixture; each later byte picks one decision: its
// low six bits the choice, its top two bits whether to CheckpointTo
// first, Restore the last checkpoint, or resume it in a fresh engine.
func FuzzStateKey(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add([]byte{0, 0x41, 3, 0x85, 2, 0xc1, 7, 0x80, 1, 0x42})
	f.Add([]byte{1, 0x44, 5, 6, 0xc3, 0x47, 2, 0x81, 9, 0xc0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mk := stateKeyFixtures[int(data[0])%len(stateKeyFixtures)]
		e := mk(t)
		cp := &Checkpoint{}
		saved := false
		check := func(i int) {
			t.Helper()
			if got, want := e.StateKey(), e.Snapshot().Key(); got != want {
				t.Fatalf("decision %d: StateKey = %#x, Snapshot().Key = %#x", i, got, want)
			}
		}
		for i := 1; ; i++ {
			var b byte
			if i < len(data) {
				b = data[i]
			}
			switch b >> 6 {
			case 1:
				if err := e.CheckpointTo(cp); err != nil {
					t.Fatal(err)
				}
				saved = true
			case 2, 3:
				if saved {
					if b>>6 == 3 {
						e = mk(t)
					}
					if err := e.Restore(cp); err != nil {
						t.Fatal(err)
					}
				}
			}
			check(i)
			cs := e.DecisionPoint()
			if len(cs) == 0 || e.Steps() >= e.StepLimit() {
				return
			}
			if err := e.ApplyChoice(cs[int(b&63)%len(cs)]); err != nil {
				t.Fatalf("decision %d: ApplyChoice: %v", i, err)
			}
		}
	})
}

var stateKeySink uint64

// BenchmarkStateKey times StateKey on a tracked engine halfway through
// a run of k walkers on an n-ring: a field read, flat across n and k.
func BenchmarkStateKey(b *testing.B) {
	for _, c := range []struct{ n, k int }{{8, 4}, {64, 16}, {512, 64}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", c.n, c.k), func(b *testing.B) {
			homes := make([]int, c.k)
			programs := make([]Program, c.k)
			for i := range homes {
				homes[i] = i * (c.n / c.k)
				programs[i] = walker(c.n)
			}
			e, err := NewEngine(ring.MustNew(c.n), homes, programs, Options{TrackState: true})
			if err != nil {
				b.Fatal(err)
			}
			for d := 0; d < c.n*c.k/2; d++ {
				cs := e.DecisionPoint()
				if err := e.ApplyChoice(cs[d%len(cs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stateKeySink = e.StateKey()
			}
		})
	}
}

// stepAPICases are the shapes the explorer's benchmark workloads search:
// the 8-ring with 4 and 8 agents, and the 7-ring with 4 agents against a
// 1/3 link adversary.
var stepAPICases = []struct {
	name string
	n, k int
	adv  *AdversaryBudget
}{
	{"n=8/k=4", 8, 4, nil},
	{"n=8/k=8", 8, 8, nil},
	{"n=7/k=4/adv=1-3", 7, 4, &AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3}},
}

// stepAPIEngine builds a tracked engine of k walkers that each circle
// an n-ring once, drives it through the first decisions of a
// deterministic schedule (under an adversary, one that fails a link on
// the way) and returns it at a decision point. Half of the schedule,
// n*k/2 decisions, leaves links in transit and walkers halted.
func stepAPIEngine(b *testing.B, n, k int, adv *AdversaryBudget, decisions int) *Engine {
	b.Helper()
	homes := make([]int, k)
	programs := make([]Program, k)
	for i := range homes {
		homes[i] = i * n / k
		programs[i] = walker(n)
	}
	e, err := NewEngine(ring.MustNew(n), homes, programs, Options{TrackState: true, Adversary: adv})
	if err != nil {
		b.Fatal(err)
	}
	for d := 0; d < decisions; d++ {
		cs := e.DecisionPoint()
		if len(cs) == 0 {
			b.Fatalf("quiesced after %d decisions", d)
		}
		if err := e.ApplyChoice(cs[(d*5)%len(cs)]); err != nil {
			b.Fatal(err)
		}
	}
	e.DecisionPoint()
	return e
}

// BenchmarkCheckpointTo times one capture into a pooled checkpoint: the
// explorer's cost per branch.
func BenchmarkCheckpointTo(b *testing.B) {
	for _, c := range stepAPICases {
		b.Run(c.name, func(b *testing.B) {
			e := stepAPIEngine(b, c.n, c.k, c.adv, c.n*c.k/2)
			cp := &Checkpoint{}
			if err := e.CheckpointTo(cp); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.CheckpointTo(cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestore times one restore, alternating between the halfway
// state and the initial configuration so every call rewrites the
// engine: the explorer's cost per popped item.
func BenchmarkRestore(b *testing.B) {
	for _, c := range stepAPICases {
		b.Run(c.name, func(b *testing.B) {
			e := stepAPIEngine(b, c.n, c.k, c.adv, c.n*c.k/2)
			var cps [2]Checkpoint
			if err := e.CheckpointTo(&cps[0]); err != nil {
				b.Fatal(err)
			}
			if err := stepAPIEngine(b, c.n, c.k, c.adv, 0).CheckpointTo(&cps[1]); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := e.Restore(&cps[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Restore(&cps[i&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyChoice times one atomic action along the rest of the
// deterministic schedule from the halfway state, patches of the kept
// choice list included. When the walk quiesces the benchmark restores
// the halfway state and starts over, and a DecisionPoint rebuilds the
// list the restore left stale; both are timed with the actions, once
// per walk of tens of actions.
func BenchmarkApplyChoice(b *testing.B) {
	for _, c := range stepAPICases {
		b.Run(c.name, func(b *testing.B) {
			e := stepAPIEngine(b, c.n, c.k, c.adv, c.n*c.k/2)
			cp := e.Checkpoint()
			var walk []Choice
			for d := 0; ; d++ {
				cs := e.DecisionPoint()
				if len(cs) == 0 {
					break
				}
				walk = append(walk, cs[(d*5)%len(cs)])
				if err := e.ApplyChoice(walk[d]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(walk)
				if j == 0 {
					if err := e.Restore(cp); err != nil {
						b.Fatal(err)
					}
					choicesSink = e.DecisionPoint()
				}
				if err := e.ApplyChoice(walk[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var choicesSink []Choice

// BenchmarkDecisionPoint times the enabled-set listing at the halfway
// state. DecisionPoint is idempotent at a decision point, and a repeat
// call returns the kept list as it stands (under the adversary, with its
// moves appended). The after-restore rows time a Restore followed by the
// DecisionPoint that rebuilds the list, the explorer's cost per popped
// item: their excess over BenchmarkRestore is the rebuild.
func BenchmarkDecisionPoint(b *testing.B) {
	for _, c := range stepAPICases {
		b.Run(c.name, func(b *testing.B) {
			e := stepAPIEngine(b, c.n, c.k, c.adv, c.n*c.k/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				choicesSink = e.DecisionPoint()
			}
		})
	}
	for _, c := range stepAPICases {
		b.Run(c.name+"/after-restore", func(b *testing.B) {
			e := stepAPIEngine(b, c.n, c.k, c.adv, c.n*c.k/2)
			cp := e.Checkpoint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Restore(cp); err != nil {
					b.Fatal(err)
				}
				choicesSink = e.DecisionPoint()
			}
		})
	}
}
