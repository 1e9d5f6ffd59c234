package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"agentring/internal/reference"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// The tests in this file write their agents as paper-shaped bodies
// hosted by internal/reference's coroutine adapter: one blocking call
// per end of an atomic action reads as the model's semantics do.
// internal/reference imports sim, so they live in the external test
// package.

var run = sim.RunRing

func TestTokenReleaseIsPermanentAndCounted(t *testing.T) {
	prog := reference.Program(t, func(api reference.API) error {
		api.ReleaseToken()
		if api.TokensHere() != 1 {
			return fmt.Errorf("tokens here = %d, want 1", api.TokensHere())
		}
		api.Move()
		if api.TokensHere() != 0 {
			return fmt.Errorf("tokens at next node = %d, want 0", api.TokensHere())
		}
		return nil
	})
	res, _ := run(t, 3, []int{0}, []sim.Program{prog}, sim.Options{})
	if res.Tokens[0] != 1 || res.Tokens[1] != 0 || res.Tokens[2] != 0 {
		t.Errorf("result tokens = %v", res.Tokens)
	}
}

func TestHomeNodeFirstAction(t *testing.T) {
	// Agent 0 sprints one full circle; agent 1's very first action must
	// still happen at its own home before agent 0's token-drop there can
	// be missed. We verify agent 1 sees no token before it drops its own:
	// agent 0 drops a token only at node 1 (agent 1's home) after
	// arriving there. If agent 1 had not acted first, it would observe
	// agent 0's token.
	var sawToken bool
	fast := reference.Program(t, func(api reference.API) error {
		api.Move() // 0 -> 1
		api.ReleaseToken()
		return nil
	})
	slow := reference.Program(t, func(api reference.API) error {
		sawToken = api.TokensHere() > 0
		api.Move()
		return nil
	})
	// Adversarial scheduler tries hard to run agent 1 late; the incoming
	// home buffer must still order agent 1's start before agent 0's
	// arrival at node 1 (FIFO on the link into node 1).
	run(t, 4, []int{0, 1}, []sim.Program{fast, slow}, sim.Options{Scheduler: sim.NewAdversarial(3)})
	if sawToken {
		t.Error("agent 1 was not first to act at its own home node")
	}
}

func TestBroadcastAndAwait(t *testing.T) {
	// Agent 0 waits at home for a message; agent 1 walks to it and
	// broadcasts a payload.
	var got sim.Message
	waiter := reference.Program(t, func(api reference.API) error {
		msgs := api.AwaitMessages()
		if len(msgs) != 1 {
			return fmt.Errorf("got %d messages, want 1", len(msgs))
		}
		got = msgs[0]
		return nil
	})
	sender := reference.Program(t, func(api reference.API) error {
		api.Move()
		api.Move() // node 4 -> 0 on a 5-ring? homes: waiter at 1, sender at 4: 4->0->1
		api.Move()
		if api.AgentsHere() != 1 {
			return fmt.Errorf("agents here = %d, want 1", api.AgentsHere())
		}
		api.Broadcast("hello")
		return nil
	})
	res, _ := run(t, 5, []int{1, 3}, []sim.Program{waiter, sender}, sim.Options{})
	if got != "hello" {
		t.Errorf("message = %v, want hello", got)
	}
	if res.MessagesSent != 1 || res.MessagesDelivered != 1 {
		t.Errorf("sent=%d delivered=%d, want 1,1", res.MessagesSent, res.MessagesDelivered)
	}
}

func TestBroadcastDoesNotReachInTransitAgents(t *testing.T) {
	// Agent 1 is in transit (in the link queue toward node 1) when agent
	// 0 broadcasts at node 1; the message must not be delivered.
	received := false
	bystander := reference.Program(t, func(api reference.API) error {
		api.Move() // enters transit toward node 1... then arrives
		if len(api.Messages()) > 0 {
			received = true
		}
		return nil
	})
	broadcaster := reference.Program(t, func(api reference.API) error {
		api.Broadcast("ghost")
		return nil
	})
	// Homes: broadcaster at 1; bystander at 0 moving toward 1.
	// Adversarial scheduling can interleave arbitrarily; in no
	// interleaving may the bystander receive: while staying it is never
	// co-located pre-halt... Use round-robin for determinism: bystander
	// yields Move (into queue to node 1), broadcaster broadcasts at node
	// 1 with nobody staying there.
	sched := sim.NewRoundRobin()
	res, _ := run(t, 3, []int{0, 1}, []sim.Program{bystander, broadcaster}, sim.Options{Scheduler: sched})
	if received {
		t.Error("in-transit agent received a broadcast")
	}
	if res.MessagesDelivered != 0 {
		t.Errorf("delivered = %d, want 0", res.MessagesDelivered)
	}
}

func TestUnreadMessagesAreConsumed(t *testing.T) {
	// A mover that ignores messages must still end with an empty mailbox
	// ("after taking an atomic action, the agent has no message").
	mover := reference.Program(t, func(api reference.API) error {
		for i := 0; i < 3; i++ {
			api.Move()
		}
		msgs := api.Messages()
		if len(msgs) != 0 {
			return fmt.Errorf("stale messages leaked across actions: %d", len(msgs))
		}
		return nil
	})
	pesterer := reference.Program(t, func(api reference.API) error {
		// Stays at the mover's home and broadcasts whenever co-located.
		api.Broadcast("noise")
		return nil
	})
	res, _ := run(t, 4, []int{0, 1}, []sim.Program{mover, pesterer}, sim.Options{})
	if !res.MailboxesEmpty {
		t.Error("mailboxes not empty at quiescence")
	}
}

func TestAwaitReturnsCurrentActionMessagesWithoutSuspending(t *testing.T) {
	// A wake delivers everything broadcast to the agent since it
	// suspended, in one batch, and the AwaitMessages it resumes in
	// drains that batch. Nothing is left for the next call, which
	// suspends again until the next broadcast: the sender's two
	// broadcasts in one action arrive together, the third on its own.
	woke := make(chan struct{}, 1)
	var first, second []sim.Message
	waiter := reference.Program(t, func(api reference.API) error {
		first = api.AwaitMessages()  // suspends; woken by the sender's first visit
		second = api.AwaitMessages() // suspends again; woken by its second visit
		woke <- struct{}{}
		return nil
	})
	sender := reference.Program(t, func(api reference.API) error {
		api.Move() // 1 -> 0
		api.Broadcast("a")
		api.Broadcast("b")
		api.Move() // 0 -> 1
		api.Move() // 1 -> 0
		api.Broadcast("c")
		return nil
	})
	res, _ := run(t, 2, []int{0, 1}, []sim.Program{waiter, sender}, sim.Options{})
	select {
	case <-woke:
	default:
		t.Fatal("waiter did not complete")
	}
	if len(first) != 2 || len(second) != 1 {
		t.Errorf("waiter received %v then %v, want [a b] then [c]", first, second)
	}
	if res.MessagesSent != 3 {
		t.Errorf("sent = %d, want 3", res.MessagesSent)
	}
}

func TestSuspendedQuiescence(t *testing.T) {
	// All agents suspend forever: the run must end with AllSuspended and
	// empty queues/mailboxes (Definition 2 shape).
	suspend := reference.Program(t, func(api reference.API) error {
		api.Move()
		api.AwaitMessages() // never woken
		return nil
	})
	res, _ := run(t, 6, []int{0, 3}, []sim.Program{suspend, suspend}, sim.Options{})
	if !res.AllSuspended() {
		t.Error("expected all agents suspended")
	}
	if !res.QueuesEmpty || !res.MailboxesEmpty {
		t.Error("expected empty queues and mailboxes")
	}
	if res.AllHalted() {
		t.Error("AllHalted must be false")
	}
}

func TestProgramErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	bad := reference.Program(t, func(api reference.API) error {
		api.Move()
		return boom
	})
	r := ring.MustNew(3)
	e, err := sim.NewEngine(r, []int{0}, []sim.Program{bad}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if !errors.Is(err, boom) {
		t.Errorf("Run error = %v, want boom", err)
	}
}

func TestProgramPanicBecomesError(t *testing.T) {
	bad := reference.Program(t, func(api reference.API) error {
		panic("kaboom")
	})
	r := ring.MustNew(3)
	e, err := sim.NewEngine(r, []int{0}, []sim.Program{bad}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.Run(); err == nil {
		t.Error("Run must surface program panics as errors")
	}
}

func TestStepLimit(t *testing.T) {
	// Two agents forever bouncing messages never quiesce; the engine
	// must stop at MaxSteps with ErrStepLimit.
	pingpong := reference.Program(t, func(api reference.API) error {
		for {
			api.Move()
		}
	})
	r := ring.MustNew(4)
	e, err := sim.NewEngine(r, []int{0}, []sim.Program{pingpong}, sim.Options{MaxSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.Run(); !errors.Is(err, sim.ErrStepLimit) {
		t.Errorf("error = %v, want ErrStepLimit", err)
	}
}

func TestAgentsHereSeesWaitingAndHalted(t *testing.T) {
	counts := make([]int, 0, 2)
	// halted-at-home agent
	sitter := reference.Program(t, func(api reference.API) error { return nil })
	// waiting agent one hop later
	waiterDone := reference.Program(t, func(api reference.API) error {
		api.AwaitMessages()
		return nil
	})
	observer := reference.Program(t, func(api reference.API) error {
		api.Move() // to node 1 (sitter halted)
		counts = append(counts, api.AgentsHere())
		api.Move() // to node 2 (waiter suspended)
		counts = append(counts, api.AgentsHere())
		return nil
	})
	// Round-robin: agents 0(sitter@1),1(waiter@2),2(observer@0).
	run(t, 5, []int{1, 2, 0}, []sim.Program{sitter, waiterDone, observer}, sim.Options{})
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 1 {
		t.Errorf("observer counts = %v, want [1 1]", counts)
	}
}

func TestHaltedAgentsIgnoreBroadcasts(t *testing.T) {
	sitter := reference.Program(t, func(api reference.API) error { return nil })
	sender := reference.Program(t, func(api reference.API) error {
		api.Move()
		api.Broadcast("wake up")
		return nil
	})
	res, _ := run(t, 3, []int{1, 0}, []sim.Program{sitter, sender}, sim.Options{})
	if res.MessagesDelivered != 0 {
		t.Errorf("delivered = %d, want 0 (recipient halted)", res.MessagesDelivered)
	}
	if !res.MailboxesEmpty {
		t.Error("mailboxes must be empty")
	}
}

func TestMeterSurfacesInResult(t *testing.T) {
	prog := reference.Program(t, func(api reference.API) error {
		api.Meter().Grow(17)
		api.Meter().Shrink(10)
		return nil
	})
	res, _ := run(t, 2, []int{0}, []sim.Program{prog}, sim.Options{})
	if res.Agents[0].PeakWords != 17 {
		t.Errorf("peak words = %d, want 17", res.Agents[0].PeakWords)
	}
	if res.MaxPeakWords() != 17 {
		t.Errorf("MaxPeakWords = %d, want 17", res.MaxPeakWords())
	}
}

func TestSnapshotShape(t *testing.T) {
	var snaps []sim.Configuration
	prog := reference.Program(t, func(api reference.API) error {
		api.ReleaseToken()
		api.Move()
		api.Move()
		return nil
	})
	r := ring.MustNew(4)
	e, err := sim.NewEngine(r, []int{1}, []sim.Program{prog}, sim.Options{
		Observer: func(c sim.Configuration) { snaps = append(snaps, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots observed")
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	if first.Step != 0 {
		t.Errorf("first snapshot step = %d", first.Step)
	}
	// Initially the agent sits in its home node's incoming buffer.
	if len(first.InTransit[1]) != 1 || first.InTransit[1][0] != 0 {
		t.Errorf("initial queue at home = %v", first.InTransit[1])
	}
	if first.Tokens[1] != 0 {
		t.Error("token present before the first action")
	}
	// Finally the agent is halted at node 3 with its token at node 1.
	if last.Statuses[0] != sim.StatusHalted {
		t.Errorf("final status = %v", last.Statuses[0])
	}
	if len(last.Staying[3]) != 1 {
		t.Errorf("final staying = %v", last.Staying)
	}
	if last.Tokens[1] != 1 {
		t.Errorf("final tokens = %v", last.Tokens)
	}
	if last.Moves[0] != 2 {
		t.Errorf("final moves = %v", last.Moves)
	}
}

func TestAuditorPassesCleanRuns(t *testing.T) {
	aud := sim.NewAuditor()
	progs := []sim.Program{sim.Walker(9), sim.Walker(4), reference.Program(t, func(api reference.API) error {
		api.ReleaseToken()
		api.AwaitMessages()
		return nil
	})}
	r := ring.MustNew(7)
	e, err := sim.NewEngine(r, []int{0, 2, 5}, progs, sim.Options{
		Observer:  aud.Observe,
		Scheduler: sim.NewRandom(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor flagged a clean run: %v", err)
	}
}

// parkedBodies counts the goroutines that run a reference body: the
// coroutines of agents that have started and not yet been stopped.
func parkedBodies() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("agentring/internal/reference.(*agent).body("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestNoGoroutineLeak: a reference agent's coroutine lives exactly as
// long as the test that built its program. Each subtest steps a
// one-agent engine to quiescence through DecisionPoint/ApplyChoice
// alone, leaving its agent parked in AwaitMessages, or Runs an engine
// whose agents park at quiescence. Right after the subtests return, no
// coroutine is left, with no waiting: the subtests' cleanups stop every
// coroutine, and a stopped coroutine's goroutine ends at once. (The
// count is of coroutines, not runtime.NumGoroutine, because a finished
// subtest's own goroutine may still be exiting when t.Run returns.)
func TestNoGoroutineLeak(t *testing.T) {
	parked := func(api reference.API) error {
		api.AwaitMessages() // never woken
		return nil
	}
	if n := parkedBodies(); n != 0 {
		t.Fatalf("%d reference coroutines alive before the subtests", n)
	}
	scoped := func(name string, want int, body func(t *testing.T)) {
		t.Run(name, func(t *testing.T) {
			body(t)
			if n := parkedBodies(); n != want {
				t.Errorf("%d agents parked in a coroutine, want %d", n, want)
			}
		})
	}
	for i := 0; i < 50; i++ {
		scoped(fmt.Sprintf("stepwise/%d", i), 1, func(t *testing.T) {
			e, err := sim.NewEngine(ring.MustNew(3), []int{0}, []sim.Program{reference.Program(t, parked)}, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for cs := e.DecisionPoint(); len(cs) > 0; cs = e.DecisionPoint() {
				if err := e.ApplyChoice(cs[0]); err != nil {
					t.Fatal(err)
				}
			}
			if !e.ResultNow().AllSuspended() {
				t.Fatal("the agent is not parked at quiescence")
			}
		})
	}
	for i := 0; i < 10; i++ {
		scoped(fmt.Sprintf("run/%d", i), 2, func(t *testing.T) {
			progs := []sim.Program{
				sim.Walker(20),
				reference.Program(t, parked),
				reference.Program(t, func(api reference.API) error {
					api.Move()
					api.AwaitMessages()
					return nil
				}),
			}
			run(t, 9, []int{0, 3, 6}, progs, sim.Options{})
		})
	}
	if n := parkedBodies(); n != 0 {
		t.Fatalf("%d reference coroutines alive after the subtests returned", n)
	}
}
