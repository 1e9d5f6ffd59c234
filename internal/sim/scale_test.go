package sim

import (
	"testing"
	"time"

	"agentring/internal/ring"
)

// TestEngineScale runs a large instance end to end to guard against
// quadratic blowups in the engine's bookkeeping.
func TestEngineScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n, k = 4096, 128
	homes := make([]int, k)
	programs := make([]Program, k)
	for i := range homes {
		homes[i] = i * (n / k)
		programs[i] = walker(2 * n / k)
	}
	r := ring.MustNew(n)
	start := time.Now()
	e, err := NewEngine(r, homes, programs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMoves != k*2*n/k {
		t.Fatalf("total moves = %d", res.TotalMoves)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("scale run took %v", elapsed)
	}
}

// TestEngineScaleMillion is the million-node smoke: construct a 1e6-node
// ring, run 100 walkers through the steady-state fast path, and verify
// the run quiesces with the right move count in bounded time. This is
// the functional half of the n=1e6 benchmark gate — it proves the
// data-oriented engine actually executes at this scale, not just that
// it constructs cheaply. Skipped in -short mode.
func TestEngineScaleMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node smoke skipped in -short mode")
	}
	const n, k = 1000000, 100
	homes := make([]int, k)
	programs := make([]Program, k)
	for i := range homes {
		homes[i] = i * (n / k)
		programs[i] = walker(2 * n / k)
	}
	r := ring.MustNew(n)
	start := time.Now()
	e, err := NewEngine(r, homes, programs, Options{Scheduler: NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMoves != k*(2*n/k) {
		t.Fatalf("total moves = %d, want %d", res.TotalMoves, k*(2*n/k))
	}
	if !res.QueuesEmpty {
		t.Fatal("queues not empty after quiescence")
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("million-node run took %v", elapsed)
	}
}
