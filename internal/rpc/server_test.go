package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"agentring/internal/jobs"
)

// startServer brings up an engine + server on a fresh Unix socket and
// returns a connected client. Everything is torn down with the test.
func startServer(t *testing.T, opts jobs.Options) (*Client, *jobs.Engine, *Server) {
	t.Helper()
	// Unix socket paths are length-limited (~104 bytes), so build a short
	// one under /tmp rather than t.TempDir().
	dir, err := os.MkdirTemp("", "ar")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	socket := filepath.Join(dir, "d.sock")

	eng := jobs.New(opts)
	t.Cleanup(eng.Close)
	srv := NewServer(eng, socket)
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
	})

	cl, err := Dial(socket)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, eng, srv
}

func sweepSpec() jobs.Spec {
	return jobs.Spec{
		Kind:      jobs.KindSweep,
		Algorithm: "native",
		Ns:        []int{16, 24},
		Ks:        []int{2, 4},
		Seed:      7,
		Scheduler: "synchronous",
	}
}

func waitFinal(t *testing.T, cl *Client, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := cl.Status(id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if snap.State.Final() {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobs.Snapshot{}
}

// TestSubmitSweepEndToEnd is the core daemon acceptance path: submit a
// sweep over the wire with live tracing on, watch progress and trace
// notifications arrive, and check the result payload is byte-identical
// to running the same spec directly through jobs.Execute.
func TestSubmitSweepEndToEnd(t *testing.T) {
	cl, _, _ := startServer(t, jobs.Options{Workers: 1})

	if _, err := cl.Subscribe(""); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	spec := sweepSpec()
	spec.TraceEvents = 10
	snap, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if snap.State != jobs.StateQueued || snap.Total != 4 {
		t.Fatalf("unexpected initial snapshot: %+v", snap)
	}

	// Consume notifications until the done event arrives.
	var progress, traces int
	sawDone := false
	timeout := time.After(10 * time.Second)
	for !sawDone {
		select {
		case n, ok := <-cl.Events():
			if !ok {
				t.Fatal("event stream closed early")
			}
			var ev jobs.Event
			if err := json.Unmarshal(n.Params, &ev); err != nil {
				t.Fatalf("bad event params: %v", err)
			}
			switch n.Method {
			case "event.trace":
				if ev.Trace == nil {
					t.Fatal("event.trace without trace payload")
				}
				traces++
			case "event.job":
				if ev.Type == "progress" {
					progress++
				}
				if ev.Type == "done" && ev.JobID == snap.ID {
					sawDone = true
				}
			default:
				t.Fatalf("unexpected notification method %q", n.Method)
			}
		case <-timeout:
			t.Fatalf("no done event (progress=%d traces=%d)", progress, traces)
		}
	}
	if progress != 4 {
		t.Errorf("want 4 progress events, got %d", progress)
	}
	if traces == 0 {
		t.Error("want at least one live trace event")
	}

	// Byte-identity: the daemon's result payload vs the direct path.
	var raw json.RawMessage
	if err := cl.Call("job.result", idParams{ID: snap.ID}, &raw); err != nil {
		t.Fatalf("job.result: %v", err)
	}
	direct, err := jobs.Execute(sweepSpec(), 1)
	if err != nil {
		t.Fatalf("direct execute: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("daemon result differs from direct execution:\n daemon: %s\n direct: %s", raw, want)
	}
}

func TestErrorCodes(t *testing.T) {
	cl, _, _ := startServer(t, jobs.Options{Workers: 1})

	check := func(err error, code int) {
		t.Helper()
		var rpcErr *Error
		if !errors.As(err, &rpcErr) {
			t.Fatalf("want *rpc.Error, got %v", err)
		}
		if rpcErr.Code != code {
			t.Errorf("want code %d, got %d (%s)", code, rpcErr.Code, rpcErr.Message)
		}
	}

	_, err := cl.Status("j999")
	check(err, CodeJobNotFound)

	_, err = cl.Submit(jobs.Spec{Kind: jobs.KindRun, Algorithm: "no-such-algorithm", N: 8, K: 2})
	check(err, CodeInvalidSpec)

	// A bad adversary budget reads as the facade words it.
	_, err = cl.Submit(jobs.Spec{Kind: jobs.KindExplore, Algorithm: "native", N: 4, Homes: []int{0, 2}, Adversary: "0/3"})
	check(err, CodeInvalidSpec)
	if want := "jobs: invalid spec: agentring: invalid configuration: adversary max concurrent 0, want >= 1"; err.(*Error).Message != want {
		t.Errorf("bad adversary budget: message %q, want %q", err.(*Error).Message, want)
	}

	err = cl.Call("no.such.method", nil, nil)
	check(err, CodeMethodNotFound)

	err = cl.Call("events.unsubscribe", subscribeResult{Subscription: 42}, nil)
	check(err, CodeNoSubscription)

	// job.result before the job is done: an exploration far too large to
	// finish within the test (see internal/jobs' blockerSpec) is still
	// running or queued when the result is asked for; the test then
	// cancels it.
	snap, err := cl.Submit(jobs.Spec{Kind: jobs.KindExplore, Algorithm: "native", N: 14, K: 7, Workload: "clustered"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	_, err = cl.Result(snap.ID)
	check(err, CodeNotFinished)
	if _, err := cl.Cancel(snap.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if got := waitFinal(t, cl, snap.ID); got.State != jobs.StateCancelled {
		t.Fatalf("job state: %v, want cancelled", got.State)
	}
}

func TestDaemonStatusProtocol(t *testing.T) {
	cl, _, srv := startServer(t, jobs.Options{})
	st, err := cl.DaemonStatus()
	if err != nil {
		t.Fatalf("daemon.status: %v", err)
	}
	if st.Protocol != ProtocolVersion {
		t.Errorf("protocol: want %d, got %d", ProtocolVersion, st.Protocol)
	}
	if st.Version == "" {
		t.Error("version missing")
	}
	if st.Socket != srv.Socket {
		t.Errorf("socket: want %q, got %q", srv.Socket, st.Socket)
	}
	var stats jobs.Stats
	if err := json.Unmarshal(st.Stats, &stats); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
}

// TestClientDisconnectMidSubscription severs a subscribed client and
// checks the daemon keeps serving: the fan-out pump must notice the
// dead connection and unsubscribe instead of wedging the event bus.
func TestClientDisconnectMidSubscription(t *testing.T) {
	cl, eng, srv := startServer(t, jobs.Options{Workers: 1})

	if _, err := cl.Subscribe(""); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if got := eng.Stats().Subscribers; got != 1 {
		t.Fatalf("want 1 subscriber, got %d", got)
	}
	cl.Close()

	// A fresh client must still get full service; its jobs generate the
	// events that make the dead pump hit its write error.
	cl2, err := Dial(srv.Socket)
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer cl2.Close()
	snap, err := cl2.Submit(sweepSpec())
	if err != nil {
		t.Fatalf("submit after disconnect: %v", err)
	}
	if got := waitFinal(t, cl2, snap.ID); got.State != jobs.StateDone {
		t.Fatalf("job state: %v (%s)", got.State, got.Error)
	}

	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead subscriber was never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubscriptionJobFilter(t *testing.T) {
	cl, _, _ := startServer(t, jobs.Options{Workers: 1})

	first, err := cl.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFinal(t, cl, first.ID)

	second, err := cl.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(second.ID); err != nil {
		t.Fatal(err)
	}
	waitFinal(t, cl, second.ID)

	// Everything that arrives must be about the filtered job.
	for {
		select {
		case n, ok := <-cl.Events():
			if !ok {
				return
			}
			var ev jobs.Event
			if err := json.Unmarshal(n.Params, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.JobID != second.ID {
				t.Fatalf("event for %q leaked through filter for %q", ev.JobID, second.ID)
			}
		case <-time.After(200 * time.Millisecond):
			return
		}
	}
}

func TestDrainOverRPC(t *testing.T) {
	cl, eng, srv := startServer(t, jobs.Options{Workers: 1})

	if err := cl.Drain(); err != nil {
		t.Fatalf("daemon.drain: %v", err)
	}
	select {
	case <-srv.DrainRequested():
	case <-time.After(time.Second):
		t.Fatal("drain was not signalled")
	}

	// The daemon main loop reacts by draining the engine; emulate it and
	// check submissions are then refused with the draining code.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	eng.Drain(ctx)
	_, err := cl.Submit(sweepSpec())
	var rpcErr *Error
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeDraining {
		t.Fatalf("want draining error, got %v", err)
	}

	// Drain is idempotent over the wire.
	if err := cl.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestLongLineClosesOnlyItsConnection: a request line longer than
// maxLine ends its own connection, and the daemon goes on answering a
// client connected before it and one connected after.
func TestLongLineClosesOnlyItsConnection(t *testing.T) {
	cl, _, srv := startServer(t, jobs.Options{Workers: 1})
	nc, r := dialRaw(t, srv.Socket)
	go nc.Write(bytes.Repeat([]byte("x"), maxLine+1)) // fails once the server hangs up
	if line, err := r.ReadBytes('\n'); err == nil {
		t.Fatalf("a line past maxLine got %q, want the connection closed", line)
	}
	if _, err := cl.DaemonStatus(); err != nil {
		t.Fatalf("the other connection: %v", err)
	}
	cl2, err := Dial(srv.Socket)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.DaemonStatus(); err != nil {
		t.Fatalf("a new connection: %v", err)
	}
}

// protocolDoc returns docs/PROTOCOL.md.
func protocolDoc(t testing.TB) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// protocolCodes returns the error codes docs/PROTOCOL.md's table lists.
func protocolCodes(t testing.TB) map[int]bool {
	t.Helper()
	codes := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (-?\d+) \|`).FindAllStringSubmatch(protocolDoc(t), -1) {
		code, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		codes[code] = true
	}
	if len(codes) == 0 {
		t.Fatal("docs/PROTOCOL.md lists no error codes")
	}
	return codes
}

// TestMethodsMatchProtocolDoc: every method in the server's table has a
// "### `name`" section under docs/PROTOCOL.md's "## Methods", and every
// such section names a method in the table.
func TestMethodsMatchProtocolDoc(t *testing.T) {
	_, section, ok := strings.Cut(protocolDoc(t), "\n## Methods\n")
	if !ok {
		t.Fatal("docs/PROTOCOL.md has no Methods section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^### `([^`]*)`$").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	slices.Sort(documented)
	if served := slices.Sorted(maps.Keys(methods)); !slices.Equal(served, documented) {
		t.Errorf("the server serves %q, docs/PROTOCOL.md documents %q", served, documented)
	}
}
