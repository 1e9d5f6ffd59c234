package sim

import (
	"testing"

	"agentring/internal/ring"
)

// TestSinkSeesWhatTraceRecords drives the same deterministic run twice
// — once with the buffering Trace, once with a streaming FuncSink — and
// requires the streamed event sequence to be identical to the buffered
// one. This is the contract the golden traces rely on after the
// TraceSink refactor: streaming is a different destination, not a
// different recording.
func TestSinkSeesWhatTraceRecords(t *testing.T) {
	run := func(opts Options) []Event {
		r, err := ring.New(8)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(r, []int{0, 1}, []Program{walker(5), walker(5)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return nil
	}

	trace := NewTrace(10000)
	run(Options{Sink: trace})
	buffered := trace.Events()
	if len(buffered) == 0 {
		t.Fatal("buffered trace is empty")
	}

	var streamed []Event
	run(Options{Sink: FuncSink(func(ev Event) { streamed = append(streamed, ev) })})
	if len(streamed) != len(buffered) {
		t.Fatalf("streamed %d events, buffered %d", len(streamed), len(buffered))
	}
	for i := range buffered {
		if streamed[i] != buffered[i] {
			t.Fatalf("event %d: streamed %v, buffered %v", i, streamed[i], buffered[i])
		}
	}
}

// TestTeeSinkFeedsBoth checks that a TeeSink of a Trace and a stream
// records into both, Trace first, with identical contents.
func TestTeeSinkFeedsBoth(t *testing.T) {
	r, err := ring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	trace := NewTrace(10000)
	var streamed []Event
	e, err := NewEngine(r, []int{0}, []Program{walker(4)},
		Options{Sink: TeeSink{trace, FuncSink(func(ev Event) { streamed = append(streamed, ev) })}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	buffered := trace.Events()
	if len(buffered) == 0 || len(buffered) != len(streamed) {
		t.Fatalf("buffered %d events, streamed %d", len(buffered), len(streamed))
	}
	for i := range buffered {
		if buffered[i] != streamed[i] {
			t.Fatalf("event %d diverges: %v vs %v", i, buffered[i], streamed[i])
		}
	}
}
