package agentring

import (
	"fmt"
	"strconv"
	"strings"

	"agentring/internal/sim"
)

// FaultEvent schedules one link-state mutation of the run's topology:
// once Step atomic actions have executed, the directed edge leaving
// node From through out-port Port switches to the given state.
// Mutations apply strictly between atomic actions.
//
// A failed edge freezes its FIFO link: agents already in transit on it
// (and agents that move onto it while it is down) are parked in the
// link buffer — frozen, never lost — and resume, in order, when the
// edge is repaired. A configuration where every enabled action sits on
// failed links is not stuck forever: pending fault events still fire
// (repairs are autonomous), so "eventually repaired" schedules always
// make progress. If a link stays down with agents frozen on it, the run
// quiesces with those agents in transit, which fails both termination
// definitions and the uniformity predicate checkers.
//
// Setting an edge to its current state is a no-op: no epoch advance, no
// trace event. An all-links-up schedule is therefore byte-identical to
// running without one.
type FaultEvent = sim.FaultEvent

// ParseFaults parses a command-line style fault schedule: a
// comma-separated list of events, each
//
//	STEP:FROM[/PORT]:down|up
//
// e.g. "10:3:down,40:3:up" (the edge leaving node 3 through port 0
// fails after 10 atomic actions and is repaired after 40), or
// "5:2/1:down" for multi-port substrates. Events may be given in any
// order; the engine applies them by Step.
func ParseFaults(spec string) ([]FaultEvent, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var events []FaultEvent
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("%w: fault event %q, want STEP:FROM[/PORT]:down|up", ErrConfig, part)
		}
		step, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil || step < 0 {
			return nil, fmt.Errorf("%w: fault step %q", ErrConfig, fields[0])
		}
		from, port := strings.TrimSpace(fields[1]), 0
		if at := strings.IndexByte(from, '/'); at >= 0 {
			port, err = strconv.Atoi(strings.TrimSpace(from[at+1:]))
			if err != nil || port < 0 {
				return nil, fmt.Errorf("%w: fault port %q", ErrConfig, fields[1])
			}
			from = from[:at]
		}
		node, err := strconv.Atoi(from)
		if err != nil || node < 0 {
			return nil, fmt.Errorf("%w: fault node %q", ErrConfig, fields[1])
		}
		var up bool
		switch strings.TrimSpace(fields[2]) {
		case "down":
			up = false
		case "up":
			up = true
		default:
			return nil, fmt.Errorf("%w: fault state %q, want down or up", ErrConfig, fields[2])
		}
		events = append(events, FaultEvent{Step: step, From: node, Port: port, Up: up})
	}
	return events, nil
}

// FormatFaults renders events in the ParseFaults syntax.
func FormatFaults(events []FaultEvent) string {
	parts := make([]string, len(events))
	for i, ev := range events {
		state := "down"
		if ev.Up {
			state = "up"
		}
		edge := strconv.Itoa(ev.From)
		if ev.Port != 0 {
			edge += "/" + strconv.Itoa(ev.Port)
		}
		parts[i] = fmt.Sprintf("%d:%s:%s", ev.Step, edge, state)
	}
	return strings.Join(parts, ",")
}
