package sim

import (
	"fmt"
	"strings"
)

// Event is one recorded engine occurrence. Agent events carry the
// acting agent's index; link mutations (kind link-down / link-up, from
// a fault schedule or Engine.SetEdgeState) carry Agent == -1 and name
// the edge by its tail node and out-port.
type Event struct {
	Step   int    `json:"step"`
	Agent  int    `json:"agent"` // acting agent, or -1 for link mutations
	Node   int    `json:"node"`
	Kind   string `json:"kind"` // arrive, wake, move, await, halt, token, broadcast, link-down, link-up
	Detail string `json:"detail,omitempty"`
}

// String implements fmt.Stringer.
func (ev Event) String() string {
	s := fmt.Sprintf("step %5d  agent %3d  node %4d  %s", ev.Step, ev.Agent, ev.Node, ev.Kind)
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	return s
}

// TraceSink receives execution events as the engine performs them. The
// engine calls Record synchronously from its stepping loop, once per
// traced occurrence and in execution order, so implementations must be
// fast and must not call back into the engine. A *Trace is the
// buffering implementation; FuncSink adapts a closure (e.g. a streaming
// fan-out to live subscribers); TeeSink feeds several sinks at once.
type TraceSink interface {
	Record(Event)
}

// FuncSink adapts a function to the TraceSink interface.
type FuncSink func(Event)

// Record implements TraceSink.
func (f FuncSink) Record(ev Event) { f(ev) }

// TeeSink fans each event out to every member sink in order.
type TeeSink []TraceSink

// Record implements TraceSink.
func (t TeeSink) Record(ev Event) {
	for _, s := range t {
		s.Record(ev)
	}
}

// Trace is the buffering TraceSink: it records execution events up to a
// capacity; once full, the oldest events are dropped (and counted) so
// long runs stay bounded.
type Trace struct {
	cap     int
	events  []Event
	dropped int
}

var _ TraceSink = (*Trace)(nil)

// NewTrace returns a trace keeping at most capacity events. A
// non-positive capacity selects a default of 4096.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Trace{cap: capacity}
}

// Record implements TraceSink, appending the event to the ring buffer.
func (t *Trace) Record(ev Event) {
	if len(t.events) == t.cap {
		copy(t.events, t.events[1:])
		t.events = t.events[:t.cap-1]
		t.dropped++
	}
	t.events = append(t.events, ev)
}

// Events returns a copy of the recorded events, oldest first.
func (t *Trace) Events() []Event {
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Dropped returns how many events were evicted due to the capacity.
func (t *Trace) Dropped() int { return t.dropped }

// String renders the trace, one event per line.
func (t *Trace) String() string {
	var b strings.Builder
	if t.dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier events dropped)\n", t.dropped)
	}
	for _, ev := range t.events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
