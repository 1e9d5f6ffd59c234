package agentring_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"agentring"
)

func TestRunNativeQuickstart(t *testing.T) {
	rep, err := agentring.Run(agentring.Native, agentring.Config{
		N:     16,
		Homes: []int{0, 1, 5, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Uniform || !rep.Definition1 {
		t.Fatalf("not uniform with termination: %+v", rep)
	}
	for _, g := range rep.Gaps {
		if g != 4 {
			t.Errorf("gap %d, want 4", g)
		}
	}
	if rep.K != 4 || rep.N != 16 {
		t.Errorf("echo n=%d k=%d", rep.N, rep.K)
	}
	if !strings.Contains(rep.Summary(), "uniform deployment reached") {
		t.Errorf("summary: %s", rep.Summary())
	}
}

func TestRunAllAlgorithmsReachUniformity(t *testing.T) {
	homes, err := agentring.RandomHomes(30, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []agentring.Algorithm{
		agentring.Native, agentring.NativeKnowN, agentring.LogSpace, agentring.Relaxed,
	} {
		t.Run(alg.String(), func(t *testing.T) {
			rep, err := agentring.Run(alg, agentring.Config{N: 30, Homes: homes})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Uniform {
				t.Fatalf("not uniform: %s", rep.Why)
			}
			switch alg {
			case agentring.Relaxed:
				if !rep.Definition2 {
					t.Error("relaxed run must satisfy Definition 2")
				}
			default:
				if !rep.Definition1 {
					t.Error("terminating run must satisfy Definition 1")
				}
			}
		})
	}
}

func TestRunSchedulers(t *testing.T) {
	homes := []int{0, 3, 4, 11}
	for _, s := range []agentring.SchedulerKind{
		agentring.RoundRobin, agentring.RandomSched, agentring.Synchronous, agentring.Adversarial,
	} {
		rep, err := agentring.Run(agentring.LogSpace, agentring.Config{
			N: 14, Homes: homes, Scheduler: s, Seed: 4, AdversaryBound: 6,
		})
		if err != nil {
			t.Fatalf("scheduler %d: %v", s, err)
		}
		if !rep.Uniform {
			t.Fatalf("scheduler %d: %s", s, rep.Why)
		}
		if s == agentring.Synchronous && rep.Rounds == 0 {
			t.Error("synchronous scheduler must report rounds")
		}
	}
}

func TestRunConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		alg  agentring.Algorithm
		cfg  agentring.Config
	}{
		{"bad ring", agentring.Native, agentring.Config{N: 0, Homes: []int{0}}},
		{"no agents", agentring.Native, agentring.Config{N: 5}},
		{"bad algorithm", agentring.Algorithm(99), agentring.Config{N: 5, Homes: []int{0}}},
		{"bad scheduler", agentring.Native, agentring.Config{N: 5, Homes: []int{0}, Scheduler: agentring.SchedulerKind(42)}},
		{"duplicate homes", agentring.Native, agentring.Config{N: 5, Homes: []int{1, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := agentring.Run(c.alg, c.cfg); !errors.Is(err, agentring.ErrConfig) {
				t.Errorf("error = %v, want ErrConfig", err)
			}
		})
	}
}

func TestRunTrace(t *testing.T) {
	rep, err := agentring.Run(agentring.Native, agentring.Config{
		N: 8, Homes: []int{0, 4}, TraceCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == "" {
		t.Error("expected a non-empty trace")
	}
	if !strings.Contains(rep.Trace, "token") {
		t.Error("trace must include token releases")
	}
}

// TestRunTraceSinkBesideTrace: Report.Trace and Config.TraceSink share
// the engine's one sink (a tee, trace first, when both are set), so a
// stream changes nothing the trace records, sees one event per trace
// line, and sees the same events with or without the buffer.
func TestRunTraceSinkBesideTrace(t *testing.T) {
	run := func(capacity int, stream bool) (string, []agentring.TraceEvent) {
		t.Helper()
		var events []agentring.TraceEvent
		cfg := agentring.Config{N: 8, Homes: []int{0, 4}, TraceCapacity: capacity}
		if stream {
			cfg.TraceSink = agentring.TraceFunc(func(ev agentring.TraceEvent) { events = append(events, ev) })
		}
		rep, err := agentring.Run(agentring.Native, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Trace, events
	}
	alone, _ := run(1<<10, false)
	both, streamed := run(1<<10, true)
	_, streamOnly := run(0, true)
	if both != alone {
		t.Error("a TraceSink changed Report.Trace")
	}
	if lines := strings.Count(alone, "\n"); lines == 0 || len(streamed) != lines {
		t.Errorf("streamed %d events beside a %d-line trace", len(streamed), lines)
	}
	if !slices.Equal(streamed, streamOnly) {
		t.Error("the stream differs with and without a trace buffer")
	}
}

func TestHomeGenerators(t *testing.T) {
	if homes, err := agentring.ClusteredHomes(12, 3); err != nil || len(homes) != 3 || homes[2] != 2 {
		t.Errorf("ClusteredHomes = %v, %v", homes, err)
	}
	if homes, err := agentring.UniformHomes(12, 3); err != nil || !agentring.IsUniform(12, homes) {
		t.Errorf("UniformHomes = %v, %v", homes, err)
	}
	homes, err := agentring.PeriodicHomes(12, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := agentring.SymmetryDegree(12, homes); err != nil || l != 2 {
		t.Errorf("SymmetryDegree = %d, %v; want 2", l, err)
	}
	if _, err := agentring.PeriodicHomes(12, 6, 5, 1); !errors.Is(err, agentring.ErrConfig) {
		t.Errorf("bad degree error = %v", err)
	}
	if _, err := agentring.RandomHomes(3, 9, 1); !errors.Is(err, agentring.ErrConfig) {
		t.Errorf("bad random error = %v", err)
	}
}

func TestPumpedHomesAndNaiveFailure(t *testing.T) {
	base := []int{0, 1, 5, 7, 8, 10}
	bigN, bigHomes, err := agentring.PumpedHomes(12, base, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agentring.Run(agentring.NaiveHalting, agentring.Config{N: bigN, Homes: bigHomes})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uniform {
		t.Error("naive halting algorithm must fail on the pumped ring (Theorem 5)")
	}
	relaxed, err := agentring.Run(agentring.Relaxed, agentring.Config{N: bigN, Homes: bigHomes})
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed.Uniform {
		t.Errorf("relaxed must solve the pumped ring: %s", relaxed.Why)
	}
}

func TestFirstFitBaselineRuns(t *testing.T) {
	homes, err := agentring.ClusteredHomes(24, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agentring.Run(agentring.FirstFit, agentring.Config{N: 24, Homes: homes})
	if err != nil {
		t.Fatal(err)
	}
	// FirstFit must terminate but is expected to usually miss exact
	// uniformity; either way the report must be well-formed.
	if len(rep.Positions) != 6 {
		t.Errorf("positions = %v", rep.Positions)
	}
	for _, a := range rep.Agents {
		if !a.Halted {
			t.Error("first-fit agents must halt")
		}
	}
}

func TestAlgorithmStringAndSummaryNonUniform(t *testing.T) {
	names := map[agentring.Algorithm]string{
		agentring.Native:        "native(k)",
		agentring.NativeKnowN:   "native(n)",
		agentring.LogSpace:      "logspace",
		agentring.Relaxed:       "relaxed",
		agentring.NaiveHalting:  "naive-halting",
		agentring.FirstFit:      "first-fit",
		agentring.Algorithm(77): "algorithm(77)",
	}
	for alg, want := range names {
		if got := alg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
