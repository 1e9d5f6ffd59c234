package agentring_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"agentring"
)

// TestExploreNativeAdversaryEveryPlacement is the adversarial
// counterpart of the fixed-fault exhaustive sweep: for EVERY initial
// configuration of every ring with n <= 5, Algorithm 1 must deploy
// uniformly under every asynchronous schedule while a budget-1
// eventually-repaired adversary chooses when and where to drop a link.
// Unlike a fixed FaultSchedule, the adversary quantifies over all
// outage timings, so a complete counterexample-free search here is a
// mechanically checked proof of worst-case outage tolerance on these
// instances.
func TestExploreNativeAdversaryEveryPlacement(t *testing.T) {
	max := 5
	if testing.Short() {
		max = 4
	}
	budget := agentring.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3}
	for n := 2; n <= max; n++ {
		for mask := 1; mask < 1<<n; mask++ {
			var homes []int
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					homes = append(homes, v)
				}
			}
			rep, err := agentring.Explore(context.Background(), agentring.Native,
				agentring.Config{N: n, Homes: homes},
				agentring.ExploreOptions{Adversary: &budget})
			if err != nil {
				t.Fatalf("n=%d homes=%v: %v", n, homes, err)
			}
			if rep.Counterexample != nil {
				t.Fatalf("n=%d homes=%v: counterexample under adversary %s:\n%s",
					n, homes, rep.Adversary, rep.Counterexample.Trace)
			}
			if !rep.Complete {
				t.Fatalf("n=%d homes=%v: search incomplete (%d truncated)", n, homes, rep.Truncated)
			}
			if rep.Adversary != "1/3/1" {
				t.Fatalf("n=%d homes=%v: report echoes adversary %q, want 1/3/1", n, homes, rep.Adversary)
			}
			if rep.WorstOutage == nil || rep.WorstOutage.Breaks || rep.WorstOutage.MinConcurrent != -1 {
				t.Fatalf("n=%d homes=%v: worst outage = %+v, want tolerant verdict", n, homes, rep.WorstOutage)
			}
		}
	}
}

// TestExploreNaiveAdversaryWorstOutage finds the minimal breaking
// budget for the estimate-then-halt strategy: on the pumped ring that
// defeats NaiveHalting (Theorem 5), an adversary-mode search must
// report a counterexample, and the worst-outage probe must discover
// that the minimal breaking concurrent budget is 0 — the algorithm is
// defeated by asynchrony alone, so its outage tolerance is vacuous.
func TestExploreNaiveAdversaryWorstOutage(t *testing.T) {
	n, homes, err := agentring.PumpedHomes(1, []int{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	budget := agentring.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3}
	rep, err := agentring.Explore(context.Background(), agentring.NaiveHalting,
		agentring.Config{N: n, Homes: homes},
		agentring.ExploreOptions{Adversary: &budget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counterexample == nil {
		t.Fatal("naive halting survived the adversary search on the pumped ring")
	}
	wo := rep.WorstOutage
	if wo == nil {
		t.Fatal("breaking adversary search reported no worst-outage probe")
	}
	if !wo.Breaks || wo.MinConcurrent != 0 {
		t.Fatalf("worst outage = %+v, want breaks at minimal concurrent budget 0 (asynchrony alone)", wo)
	}
	if wo.RepairWithin != 3 || wo.MaxTotal != 1 {
		t.Fatalf("worst outage does not echo the held-fixed budget: %+v", wo)
	}
}

// TestParseFormatAdversaryRoundTrip pins the K/D[/T] budget syntax.
func TestParseFormatAdversaryRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want agentring.AdversaryBudget
		out  string
	}{
		{"1/3", agentring.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3, MaxTotal: 1}, "1/3/1"},
		{"2/4/5", agentring.AdversaryBudget{MaxConcurrent: 2, RepairWithin: 4, MaxTotal: 5}, "2/4/5"},
		{" 1 / 2 ", agentring.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 2, MaxTotal: 1}, "1/2/1"},
	}
	for _, tc := range cases {
		got, err := agentring.ParseAdversary(tc.spec)
		if err != nil {
			t.Fatalf("ParseAdversary(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseAdversary(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if s := agentring.FormatAdversary(got); s != tc.out {
			t.Fatalf("FormatAdversary(%+v) = %q, want %q", got, s, tc.out)
		}
		back, err := agentring.ParseAdversary(agentring.FormatAdversary(got))
		if err != nil || back != got {
			t.Fatalf("round trip %q -> %+v, err %v", tc.spec, back, err)
		}
	}
	for _, bad := range []string{"", "1", "1/2/3/4", "0/3", "1/0", "1/-2", "x/3", "1/3/-1"} {
		if _, err := agentring.ParseAdversary(bad); !errors.Is(err, agentring.ErrConfig) {
			t.Fatalf("ParseAdversary(%q) err = %v, want ErrConfig", bad, err)
		}
	}
}

// TestExploreAdversaryExcludesFaults: an online adversary and a fixed
// fault schedule answer different questions; asking for both is a
// configuration error surfaced before any search runs.
func TestExploreAdversaryExcludesFaults(t *testing.T) {
	budget := agentring.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 2}
	_, err := agentring.Explore(context.Background(), agentring.Native, agentring.Config{
		N:     3,
		Homes: []int{0},
		Faults: []agentring.FaultEvent{
			{Step: 1, From: 0, Port: 0, Up: false},
		},
	}, agentring.ExploreOptions{Adversary: &budget})
	if !errors.Is(err, agentring.ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig for adversary+faults", err)
	}
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion message", err)
	}
}

// TestExploreAdversaryBadBudget: one validator checks a budget, and
// its errors read the same whether ParseAdversary or Explore meets the
// budget, each wrapped in ErrConfig.
func TestExploreAdversaryBadBudget(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		budget agentring.AdversaryBudget
		want   string
	}{
		{"0/3", agentring.AdversaryBudget{MaxConcurrent: 0, RepairWithin: 3},
			"agentring: invalid configuration: adversary max concurrent 0, want >= 1"},
		{"1/0", agentring.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 0},
			"agentring: invalid configuration: adversary repair-within 0, want >= 1 (permanent failures are Config.Faults territory)"},
		{"1/3/-1", agentring.AdversaryBudget{MaxConcurrent: 1, RepairWithin: 3, MaxTotal: -1},
			"agentring: invalid configuration: adversary max total -1, want >= 0"},
	} {
		_, parseErr := agentring.ParseAdversary(tc.spec)
		b := tc.budget
		_, exploreErr := agentring.Explore(context.Background(), agentring.Native,
			agentring.Config{N: 3, Homes: []int{0}},
			agentring.ExploreOptions{Adversary: &b})
		for who, err := range map[string]error{"ParseAdversary": parseErr, "Explore": exploreErr} {
			if !errors.Is(err, agentring.ErrConfig) || err.Error() != tc.want {
				t.Errorf("%s(%s): err = %v, want %q wrapping ErrConfig", who, tc.spec, err, tc.want)
			}
		}
	}
}
