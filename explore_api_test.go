package agentring_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"agentring"
)

func TestExploreNativeComplete(t *testing.T) {
	rep, err := agentring.Explore(context.Background(), agentring.Native, agentring.Config{
		N: 6, Homes: []int{0, 1, 3},
	}, agentring.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("exploration incomplete: %+v", rep)
	}
	if rep.Counterexample != nil {
		t.Fatalf("unexpected counterexample: %s", rep.Counterexample.Trace)
	}
	if rep.States == 0 || rep.DistinctTerminals == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.Algorithm != agentring.Native.String() || rep.N != 6 || rep.K != 3 {
		t.Fatalf("config echo wrong: %+v", rep)
	}
}

func TestExploreTheorem5Counterexample(t *testing.T) {
	// The Theorem 5 pumping construction, via the public helper: one
	// agent on a 1-ring, pumped to five copies plus three empty ones.
	n, homes, err := agentring.PumpedHomes(1, []int{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agentring.Explore(context.Background(), agentring.NaiveHalting, agentring.Config{N: n, Homes: homes},
		agentring.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatal("no counterexample on the pumped ring")
	}
	if !strings.Contains(cex.Reason, "not uniform") {
		t.Fatalf("reason = %q", cex.Reason)
	}
	if len(cex.Prefix) == 0 || cex.Trace == "" || len(cex.Positions) != len(homes) {
		t.Fatalf("counterexample not replayable: %+v", cex)
	}
	if agentring.IsUniform(n, cex.Positions) {
		t.Fatalf("counterexample positions %v are uniform", cex.Positions)
	}
}

func TestExploreConfigErrors(t *testing.T) {
	// The explorer's sleep sets are agent bitmasks, so it refuses more
	// than 64 agents; the facade reports that as a configuration error.
	homes65 := make([]int, 65)
	for i := range homes65 {
		homes65[i] = i
	}
	cases := []struct {
		name string
		alg  agentring.Algorithm
		cfg  agentring.Config
	}{
		{"zero ring", agentring.Native, agentring.Config{N: 0, Homes: []int{0}}},
		{"no agents", agentring.Native, agentring.Config{N: 4}},
		{"duplicate homes", agentring.Native, agentring.Config{N: 4, Homes: []int{1, 1}}},
		{"unknown algorithm", agentring.Algorithm(99), agentring.Config{N: 4, Homes: []int{0}}},
		{"65 agents", agentring.Native, agentring.Config{N: 65, Homes: homes65}},
	}
	for _, tc := range cases {
		if _, err := agentring.Explore(context.Background(), tc.alg, tc.cfg, agentring.ExploreOptions{}); !errors.Is(err, agentring.ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", tc.name, err)
		}
	}
}

// TestExploreBudgetAndDeprecatedFieldsAgree: Budget.MaxDepth reaches
// the search and truncates it honestly — a depth bound too shallow for
// the space leaves the report incomplete, with the cut branches
// counted.
func TestExploreBudgetAndDeprecatedFieldsAgree(t *testing.T) {
	cfg := agentring.Config{N: 6, Homes: []int{0, 1, 3}}
	rep, err := agentring.Explore(context.Background(), agentring.Native, cfg,
		agentring.ExploreOptions{Budget: agentring.Budget{MaxDepth: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("depth 3 cannot cover the space; Complete must be false")
	}
	if rep.Truncated == 0 {
		t.Error("no truncated branches under a depth-3 budget")
	}
}

// TestExploreMaxDurationTruncates: the wall-clock budget reaches the
// facade: an expiring MaxDuration yields an honest partial report, not
// an error. The search must outlast the budget by a wide margin: a
// 5 ms timer can reach a busy search several milliseconds late, and the
// whole n=8 k=6 search takes about 20 ms on a 2-vCPU VM.
func TestExploreMaxDurationTruncates(t *testing.T) {
	rep, err := agentring.Explore(context.Background(), agentring.Native,
		agentring.Config{N: 8, Homes: []int{0, 1, 2, 3, 4, 5}},
		agentring.ExploreOptions{Budget: agentring.Budget{MaxDuration: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("5ms budget on an n=8 k=6 search claims complete coverage")
	}
	if rep.Truncated == 0 {
		t.Error("no truncated branches in a budget-expired report")
	}
}

// TestExploreMaxStepsCounterexample: Budget.MaxSteps is a checked
// bound, not a truncation. The first schedule to reach it without
// quiescing is the counterexample, and the search stops there without
// an error. On the 4-ring with homes 0 and 1 that schedule takes choice
// 0 at each of its m decisions.
func TestExploreMaxStepsCounterexample(t *testing.T) {
	for m := 1; m <= 3; m++ {
		rep, err := agentring.Explore(context.Background(), agentring.Native,
			agentring.Config{N: 4, Homes: []int{0, 1}},
			agentring.ExploreOptions{Budget: agentring.Budget{MaxSteps: m}})
		if err != nil {
			t.Fatalf("MaxSteps %d: %v", m, err)
		}
		if rep.Complete {
			t.Errorf("MaxSteps %d: report claims complete coverage", m)
		}
		want := fmt.Sprintf("sim: step limit exceeded before quiescence (limit %d)", m)
		if cex := rep.Counterexample; cex == nil || cex.Reason != want || !slices.Equal(cex.Prefix, make([]int, m)) {
			t.Errorf("MaxSteps %d: counterexample %+v, want reason %q and a prefix of %d zeros", m, cex, want, m)
		}
	}
}

// TestExploreContextCancelReturnsPartialReport: cancelling the context
// surfaces the context error alongside the partial report. The deadline
// has passed before the search starts, so the search stops at its first
// pop, whatever the machine's speed.
func TestExploreContextCancelReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	rep, err := agentring.Explore(ctx, agentring.Native,
		agentring.Config{N: 8, Homes: []int{0, 1, 2, 3, 4}}, agentring.ExploreOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if rep.Complete {
		t.Fatal("cancelled search claims completeness")
	}
}

// TestExploreProgressCallback: the Progress option delivers at least a
// final snapshot consistent with the report.
func TestExploreProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var snaps []agentring.ExploreProgress
	rep, err := agentring.Explore(context.Background(), agentring.Native,
		agentring.Config{N: 6, Homes: []int{0, 2, 4}},
		agentring.ExploreOptions{Progress: func(p agentring.ExploreProgress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	final := snaps[len(snaps)-1]
	if final.Stats != rep.ExploreStats {
		t.Errorf("final snapshot's ledger %+v, report's %+v", final.Stats, rep.ExploreStats)
	}
	if !slices.Equal(final.Homes, []int{0, 2, 4}) {
		t.Errorf("final snapshot names homes %v", final.Homes)
	}
}

// TestExploreReportKeyOrder pins the member order of a marshalled
// ExploreReport: the embedded ledger's nine counters stand between the
// configuration echo and the verdict, in the order reports have always
// been written.
func TestExploreReportKeyOrder(t *testing.T) {
	rep := agentring.ExploreReport{
		Algorithm: "naive", Topology: "ring(8)", N: 8, K: 5, Faults: "1:2:down", Adversary: "1/3",
		Counterexample: &agentring.ExploreCounterexample{Reason: "x"},
		WorstOutage:    &agentring.WorstOutage{Breaks: true},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.Token() // the opening brace
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"algorithm", "topology", "n", "k", "faults", "adversary",
		"states", "pruned", "sleep_skips", "replays", "steps_replayed",
		"terminals", "distinct_terminals", "truncated", "deepest",
		"complete", "counterexample", "worst_outage"}
	if !slices.Equal(keys, want) {
		t.Errorf("keys %v\nwant %v", keys, want)
	}
}
