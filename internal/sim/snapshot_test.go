package sim

import (
	"testing"

	"agentring/internal/ring"
)

func TestAuditorCatchesTokenDeletion(t *testing.T) {
	aud := NewAuditor()
	aud.Observe(Configuration{
		Step:         0,
		Statuses:     []Status{StatusWaiting},
		Tokens:       []int{2, 0},
		MailboxSizes: []int{0},
		Staying:      [][]int{{0}, {}},
		InTransit:    [][]int{{}, {}},
		Moves:        []int{0},
	})
	aud.Observe(Configuration{
		Step:         1,
		Statuses:     []Status{StatusWaiting},
		Tokens:       []int{1, 0}, // token vanished
		MailboxSizes: []int{0},
		Staying:      [][]int{{0}, {}},
		InTransit:    [][]int{{}, {}},
		Moves:        []int{0},
	})
	if aud.Err() == nil {
		t.Fatal("auditor missed a deleted token")
	}
}

func TestAuditorCatchesDuplicatedAgent(t *testing.T) {
	aud := NewAuditor()
	aud.Observe(Configuration{
		Step:         0,
		Statuses:     []Status{StatusWaiting},
		Tokens:       []int{0, 0},
		MailboxSizes: []int{0},
		Staying:      [][]int{{0}, {0}}, // agent 0 at two nodes
		InTransit:    [][]int{{}, {}},
		Moves:        []int{0},
	})
	if aud.Err() == nil {
		t.Fatal("auditor missed a bilocated agent")
	}
}

func TestAuditorCatchesResurrectedHalt(t *testing.T) {
	aud := NewAuditor()
	base := Configuration{
		Step:         0,
		Statuses:     []Status{StatusHalted},
		Tokens:       []int{0},
		MailboxSizes: []int{0},
		Staying:      [][]int{{0}},
		InTransit:    [][]int{{}},
		Moves:        []int{3},
	}
	aud.Observe(base)
	aud.Observe(base) // registers halt position
	zombie := base
	zombie.Step = 2
	zombie.Statuses = []Status{StatusWaiting}
	aud.Observe(zombie)
	if aud.Err() == nil {
		t.Fatal("auditor missed a resurrected halted agent")
	}
}

func TestAuditorCatchesNonFIFOQueue(t *testing.T) {
	aud := NewAuditor()
	aud.Observe(Configuration{
		Step:         0,
		Statuses:     []Status{StatusInTransit, StatusInTransit},
		Tokens:       []int{0, 0},
		MailboxSizes: []int{0, 0},
		Staying:      [][]int{{}, {}},
		InTransit:    [][]int{{0, 1}, {}},
		Moves:        []int{0, 0},
	})
	aud.Observe(Configuration{
		Step:         1,
		Statuses:     []Status{StatusInTransit, StatusInTransit},
		Tokens:       []int{0, 0},
		MailboxSizes: []int{0, 0},
		Staying:      [][]int{{}, {}},
		InTransit:    [][]int{{1, 0}, {}}, // reordered!
		Moves:        []int{0, 0},
	})
	if aud.Err() == nil {
		t.Fatal("auditor missed a reordered FIFO queue")
	}
}

func TestFIFOEvolution(t *testing.T) {
	cases := []struct {
		prev, next []int
		reentry    bool
		want       bool
	}{
		{[]int{1, 2}, []int{1, 2}, false, true},
		{[]int{1, 2}, []int{2}, false, true},
		{[]int{1, 2}, []int{1, 2, 3}, false, true},
		{[]int{}, []int{5}, false, true},
		{[]int{}, []int{}, false, true},
		{[]int{1, 2}, []int{2, 1}, false, false}, // pop+push of distinct agents
		{[]int{1, 2}, []int{2, 1}, true, true},   // legal self-loop re-entry
		{[]int{1, 2}, []int{2, 3}, false, false}, // pop+push in one action, n>1
		{[]int{1, 2}, []int{2, 3}, true, false},  // re-entry must push the popped agent
		{[]int{1, 2, 3}, []int{3}, false, false}, // double pop
		{[]int{1}, []int{2, 3}, false, false},    // replaced wholesale
		{[]int{1}, []int{}, false, true},         // pop to empty
		{[]int{1}, []int{1, 1}, false, true},     // push duplicate id is shape-legal here
	}
	for _, c := range cases {
		if got := fifoEvolution(c.prev, c.next, c.reentry); got != c.want {
			t.Errorf("fifoEvolution(%v, %v, %v) = %v, want %v", c.prev, c.next, c.reentry, got, c.want)
		}
	}
}

func TestAuditorSingleNodeRingReentry(t *testing.T) {
	// On a 1-node ring an agent that keeps moving pops and re-enters the
	// same queue each action; the auditor must accept that.
	aud := NewAuditor()
	prog := walker(3)
	r := ring.MustNew(1)
	e, err := NewEngine(r, []int{0}, []Program{prog}, Options{Observer: aud.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor rejected legal 1-ring run: %v", err)
	}
}
