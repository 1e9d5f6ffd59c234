package verify

import (
	"strings"
	"testing"

	"agentring/internal/sim"
)

func haltedResult(nodes ...int) sim.Result {
	res := sim.Result{QueuesEmpty: true, MailboxesEmpty: true}
	for _, v := range nodes {
		res.Agents = append(res.Agents, sim.AgentReport{Node: v, Status: sim.StatusHalted})
	}
	return res
}

func suspendedResult(nodes ...int) sim.Result {
	res := sim.Result{QueuesEmpty: true, MailboxesEmpty: true}
	for _, v := range nodes {
		res.Agents = append(res.Agents, sim.AgentReport{Node: v, Status: sim.StatusWaiting})
	}
	return res
}

func TestCheckDefinition1Accepts(t *testing.T) {
	if err := CheckDefinition1(16, haltedResult(0, 4, 8, 12)); err != nil {
		t.Errorf("valid halted run rejected: %v", err)
	}
}

func TestCheckDefinition1Rejections(t *testing.T) {
	// Not all halted.
	res := haltedResult(0, 8)
	res.Agents[1].Status = sim.StatusWaiting
	if err := CheckDefinition1(16, res); err == nil || !strings.Contains(err.Error(), "halted") {
		t.Errorf("waiting agent accepted: %v", err)
	}
	// Queues not empty.
	res = haltedResult(0, 8)
	res.QueuesEmpty = false
	if err := CheckDefinition1(16, res); err == nil || !strings.Contains(err.Error(), "queues") {
		t.Errorf("non-empty queues accepted: %v", err)
	}
	// Not uniform.
	if err := CheckDefinition1(16, haltedResult(0, 1)); err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Errorf("non-uniform accepted: %v", err)
	}
}

func TestCheckDefinition2Accepts(t *testing.T) {
	if err := CheckDefinition2(10, suspendedResult(1, 4, 8)); err != nil {
		t.Errorf("valid suspended run rejected: %v", err)
	}
}

func TestCheckDefinition2Rejections(t *testing.T) {
	// A halted agent violates the suspended-state requirement.
	res := suspendedResult(1, 4, 8)
	res.Agents[0].Status = sim.StatusHalted
	if err := CheckDefinition2(10, res); err == nil || !strings.Contains(err.Error(), "suspended") {
		t.Errorf("halted agent accepted: %v", err)
	}
	// Non-empty mailboxes.
	res = suspendedResult(1, 4, 8)
	res.MailboxesEmpty = false
	if err := CheckDefinition2(10, res); err == nil || !strings.Contains(err.Error(), "mailboxes") {
		t.Errorf("non-empty mailboxes accepted: %v", err)
	}
	// Non-empty queues.
	res = suspendedResult(1, 4, 8)
	res.QueuesEmpty = false
	if err := CheckDefinition2(10, res); err == nil || !strings.Contains(err.Error(), "queues") {
		t.Errorf("non-empty queues accepted: %v", err)
	}
	// Not uniform.
	if err := CheckDefinition2(10, suspendedResult(1, 2, 3)); err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Errorf("non-uniform accepted: %v", err)
	}
}
