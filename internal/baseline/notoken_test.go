package baseline

import (
	"reflect"
	"sort"
	"testing"

	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/verify"
)

func runNoToken(t *testing.T, n int, homes []int, sched sim.Scheduler) sim.Result {
	t.Helper()
	programs := make([]sim.Program, len(homes))
	for i := range programs {
		p, err := NewNoToken(n, len(homes))
		if err != nil {
			t.Fatal(err)
		}
		programs[i] = p
	}
	e, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewNoTokenValidation(t *testing.T) {
	if _, err := NewNoToken(0, 1); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := NewNoToken(4, 9); err == nil {
		t.Error("k>n must fail")
	}
}

// TestNoTokenGapMultisetInvariantUnderSync demonstrates the paper's
// token-necessity remark: under the synchronous scheduler, identical
// token-less deterministic agents move in lockstep, so the multiset of
// gaps between agents never changes — a non-uniform initial
// configuration can never become uniform, no matter what the (blind)
// program does.
func TestNoTokenGapMultisetInvariantUnderSync(t *testing.T) {
	n := 24
	homes := []int{0, 1, 2, 3} // clustered: gaps {1,1,1,21}
	initial := verify.Gaps(n, homes)
	sort.Ints(initial)

	res := runNoToken(t, n, homes, sim.NewSynchronous())
	final := verify.Gaps(n, res.Positions())
	sort.Ints(final)

	if !reflect.DeepEqual(initial, final) {
		t.Fatalf("gap multiset changed: %v -> %v (token-less agents should rotate rigidly)", initial, final)
	}
	if verify.IsUniform(n, res.Positions()) {
		t.Fatal("token-less agents achieved uniformity from a non-uniform start under sync — contradicts the model argument")
	}
}

// TestNoTokenVersusTokened is the companion positive control: the same
// clustered start is solved by any of the token-based algorithms (here
// checked indirectly via the workload tests), so the failure above is
// attributable to the missing tokens, not to the configuration.
func TestNoTokenAlwaysHalts(t *testing.T) {
	for _, n := range []int{6, 12, 30} {
		homes := make([]int, 3)
		for i := range homes {
			homes[i] = i
		}
		res := runNoToken(t, n, homes, sim.NewSynchronous())
		if !res.AllHalted() {
			t.Fatalf("n=%d: token-less agents did not halt", n)
		}
	}
}
