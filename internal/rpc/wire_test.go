package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"agentring"
	"agentring/internal/jobs"
)

// refereeLine is the client's line routing as it was before the
// one-decode envelope, kept as the referee for parseLine: a probe for
// the id and method, then a second decode into the notification or
// response shape, then a third for the integer id.
func refereeLine(line []byte) (*Notification, int, *Response) {
	if len(line) == 0 {
		return nil, 0, nil
	}
	var probe struct {
		ID     *json.RawMessage `json:"id"`
		Method string           `json:"method"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, 0, nil
	}
	if probe.ID == nil && probe.Method != "" {
		var n Notification
		if json.Unmarshal(line, &n) == nil {
			return &n, 0, nil
		}
		return nil, 0, nil
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil || resp.ID == nil {
		return nil, 0, nil
	}
	var id int
	if err := json.Unmarshal(*resp.ID, &id); err != nil {
		return nil, 0, nil
	}
	return nil, id, &resp
}

// refereeEvent is the notification line the server wrote for ev before
// it assembled lines around the payload: json.Marshal of the envelope
// holding the payload's json.Marshal bytes, plus a newline.
func refereeEvent(t testing.TB, ev jobs.Event) []byte {
	t.Helper()
	params, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	method := "event.job"
	if ev.Type == "trace" {
		method = "event.trace"
	}
	line, err := json.Marshal(Notification{JSONRPC: "2.0", Method: method, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// refereeResponse is the response line the server wrote before it
// assembled result lines around the payload.
func refereeResponse(t testing.TB, id string, result any, rpcErr *Error) []byte {
	t.Helper()
	resp := Response{JSONRPC: "2.0", Error: rpcErr}
	if id != "" {
		raw := json.RawMessage(id)
		resp.ID = &raw
	}
	if rpcErr == nil {
		raw, err := json.Marshal(result)
		if err != nil {
			t.Fatal(err)
		}
		resp.Result = raw
	}
	line, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// FuzzClientLine holds parseLine to the referee on every input line:
// both skip it, or both deliver the same notification, or both resolve
// the same call id with the same response. Run it as the CI fuzz job
// does:
//
//	go test ./internal/rpc -run '^$' -fuzz '^FuzzClientLine$' -fuzztime 30s
func FuzzClientLine(f *testing.F) {
	done := jobs.Snapshot{ID: "j1", Spec: jobs.Spec{Kind: jobs.KindRun, Algorithm: "native", N: 8, K: 2}, State: jobs.StateDone, Done: 1, Total: 1}
	jobLine, err := appendLine(nil, nil, "event.job", "params", jobs.Event{Type: "done", JobID: "j1", Job: &done})
	if err != nil {
		f.Fatal(err)
	}
	traceLine, err := appendLine(nil, nil, "event.trace", "params", jobs.Event{Type: "trace", JobID: "j1", Trace: &agentring.TraceEvent{Step: 3, Agent: 1, Node: 4, Kind: "move", Detail: "via port 1"}})
	if err != nil {
		f.Fatal(err)
	}
	id := json.RawMessage("3")
	resultLine, err := appendLine(nil, &id, "", "result", done)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		jobLine,
		traceLine,
		resultLine,
		refereeResponse(f, "4", nil, &Error{Code: CodeJobNotFound, Message: `jobs: no such job: "j9"`}),
		[]byte(`{"jsonrpc":"2.0","id":null,"error":{"code":-32700,"message":"parse error: invalid character 'x' looking for beginning of value"}}`),
		[]byte(`{"jsonrpc":"2.0","id":5,"result":{"id":"j1","st`),
	} {
		f.Add(bytes.TrimSuffix(seed, []byte("\n")))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		n, id, resp := parseLine(line)
		wantN, wantID, wantResp := refereeLine(line)
		if !reflect.DeepEqual(n, wantN) || id != wantID || !reflect.DeepEqual(resp, wantResp) {
			t.Fatalf("line %q routed as (%+v, %d, %+v), the referee routes it as (%+v, %d, %+v)", line, n, id, resp, wantN, wantID, wantResp)
		}
	})
}

// TestParseLineMatchesReferee pins the corners where one decode could
// route a line differently from the referee's probe-then-decode: a bad
// error member on a notification, repeated members, and ids that are
// not JSON integers.
func TestParseLineMatchesReferee(t *testing.T) {
	for _, line := range []string{
		`{"jsonrpc":"2.0","method":"event.job","params":{"type":"done"},"error":5}`,
		`{"jsonrpc":"2.0","id":1,"error":{"code":"x"},"error":null}`,
		`{"jsonrpc":"2.0","id":1,"error":{"code":7},"error":{"message":"m"}}`,
		`{"jsonrpc":"2.0","id":1,"error":null}`,
		`{"jsonrpc":"2.0","id":1,"id":null,"result":1}`,
		`{"jsonrpc":"2.0","ID":2,"Result":[1]}`,
		`{"jsonrpc":2,"method":"event.job"}`,
		`{"jsonrpc":"2.0","id":"1","result":1}`,
		`{"jsonrpc":"2.0","id":1.0,"result":1}`,
		`{"jsonrpc":"2.0","id":1e2,"result":1}`,
		`{"jsonrpc":"2.0","id":-0,"result":1}`,
		`{"jsonrpc":"2.0","id":99999999999999999999,"result":1}`,
		`{"jsonrpc":"2.0","id":1,"method":"event.job","result":1}`,
		`{"jsonrpc":"2.0","method":""}`,
		`null`,
		`[]`,
		``,
	} {
		n, id, resp := parseLine([]byte(line))
		wantN, wantID, wantResp := refereeLine([]byte(line))
		if !reflect.DeepEqual(n, wantN) || id != wantID || !reflect.DeepEqual(resp, wantResp) {
			t.Errorf("line %s routed as (%+v, %d, %+v), the referee routes it as (%+v, %d, %+v)", line, n, id, resp, wantN, wantID, wantResp)
		}
	}
}

// dialRaw connects to the server without a Client, so a test reads the
// server's lines as bytes.
func dialRaw(t *testing.T, socket string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return nc, bufio.NewReader(nc)
}

// exchange writes one request line and returns the next line read.
func exchange(t *testing.T, nc net.Conn, r *bufio.Reader, request string) []byte {
	t.Helper()
	if _, err := nc.Write([]byte(request + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestWireBytesMatchEnvelope holds every line the server writes to the
// referee's json.Marshal of the Notification or Response envelope, byte
// for byte: one event of each type the engine publishes, result
// responses (ids compacted and HTML-escaped as the encoder writes them)
// and error responses.
func TestWireBytesMatchEnvelope(t *testing.T) {
	cl, eng, srv := startServer(t, jobs.Options{Workers: 1})
	nc, r := dialRaw(t, srv.Socket)

	got := exchange(t, nc, r, `{"jsonrpc":"2.0","id":1,"method":"events.subscribe","params":{"buffer":4096}}`)
	if want := refereeResponse(t, "1", subscribeResult{Subscription: 1}, nil); !bytes.Equal(got, want) {
		t.Fatalf("subscribe response:\n got %s want %s", got, want)
	}
	events, cancel := eng.Subscribe(4096)
	defer cancel()

	sweep := sweepSpec()
	sweep.TraceEvents = 5
	failing := jobs.Spec{Kind: jobs.KindRun, Algorithm: "binative", N: 8, K: 2} // BiNative needs a backward port
	for _, spec := range []jobs.Spec{sweep, {Kind: jobs.KindExplore, Algorithm: "native", N: 6, K: 2, Workload: "clustered"}, failing} {
		snap, err := cl.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitFinal(t, cl, snap.ID)
	}
	blocker, err := cl.Submit(jobs.Spec{Kind: jobs.KindExplore, Algorithm: "native", N: 14, K: 7, Workload: "clustered"})
	if err != nil {
		t.Fatal(err)
	}
	for {
		snap, err := cl.Status(blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == jobs.StateRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := cl.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitFinal(t, cl, blocker.ID)
	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	eng.Drain(ctx)

	seen := map[string]bool{}
	timeout := time.After(30 * time.Second)
	for i := 0; ; i++ {
		var ev jobs.Event
		select {
		case ev = <-events:
		case <-timeout:
			t.Fatalf("no drain event after %d events", i)
		}
		kind := ev.Type
		if ev.Type == "progress" && ev.Explore != nil {
			kind = "explore progress"
		}
		seen[kind] = true
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := refereeEvent(t, ev); !bytes.Equal(line, want) {
			t.Fatalf("event %d (%s):\n got %s want %s", i, kind, line, want)
		}
		if ev.Type == "drain" {
			break
		}
	}
	for _, kind := range []string{"queued", "started", "progress", "explore progress", "trace", "done", "failed", "cancelled", "drain"} {
		if !seen[kind] {
			t.Errorf("no %s event was checked", kind)
		}
	}

	status, err := eng.Status("j1")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{`7`, `"a<b>&c"`, `[ 1, {"k" : "\u2028"} ]`} {
		got := exchange(t, nc, r, `{"jsonrpc":"2.0","id":`+id+`,"method":"job.status","params":{"id":"j1"}}`)
		if want := refereeResponse(t, id, status, nil); !bytes.Equal(got, want) {
			t.Errorf("job.status with id %s:\n got %s want %s", id, got, want)
		}
	}
	got = exchange(t, nc, r, `{"jsonrpc":"2.0","id":"x","method":"no.such.method"}`)
	if want := refereeResponse(t, `"x"`, nil, &Error{Code: CodeMethodNotFound, Message: `unknown method "no.such.method"`}); !bytes.Equal(got, want) {
		t.Errorf("unknown method:\n got %s want %s", got, want)
	}
	bad := `{"jsonrpc":"2.0","id":2,`
	parseErr := json.Unmarshal([]byte(bad), new(Request))
	got = exchange(t, nc, r, bad)
	if want := refereeResponse(t, "", nil, &Error{Code: CodeParseError, Message: "parse error: " + parseErr.Error()}); !bytes.Equal(got, want) {
		t.Errorf("parse error:\n got %s want %s", got, want)
	}
}

// TestCallLinesMatchEnvelope holds every request line Call writes to
// the referee the client used before it assembled lines around the
// params: json.Marshal of the params, then of the Request envelope
// holding them, plus a newline. The calls cover params of several
// shapes (raw JSON with spaces, HTML characters, U+2028, a typed nil),
// no params, and method names json.Marshal escapes.
func TestCallLinesMatchEnvelope(t *testing.T) {
	dir, err := os.MkdirTemp("", "ar")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unix", filepath.Join(dir, "d.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)

	for i, tc := range []struct {
		method string
		params any
	}{
		{"job.status", idParams{ID: "j1"}},
		{"job.list", nil},
		{"job.submit", sweepSpec()},
		{"events.subscribe", json.RawMessage(`{ "buffer" : 8, "job" : "a<b>&c" }`)},
		{"job.cancel", (*idParams)(nil)},
		{"a<b>&c\u2028\"\\\t", map[string]any{"k": "\u2028<>&", "x": 1.5}},
		{"\xff\x00", []int{}},
	} {
		id := json.RawMessage(strconv.Itoa(i + 1))
		var raw json.RawMessage
		if tc.params != nil {
			if raw, err = json.Marshal(tc.params); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(Request{JSONRPC: "2.0", ID: &id, Method: tc.method, Params: raw})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cl.Call(tc.method, tc.params, nil) }()
		got, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("call %d (%q):\n got %s want %s", i+1, tc.method, got, want)
		}
		if _, err := nc.Write([]byte(`{"jsonrpc":"2.0","id":` + string(id) + `,"result":true}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
}

// FuzzServerLine feeds request lines to reply, the function serve runs
// on every line, against an engine drained first, so a job.submit
// answers 1004 and no job runs. On every input reply must not panic,
// and: a blank line or a valid request without an id gets no reply; a
// line that is not JSON gets a parse error without an id; JSON that
// does not decode as a request, and an invalid request, get -32600
// under the id the line carries, if it has one; and any other line
// gets exactly one reply line, with the request's id and either a
// result or an error code docs/PROTOCOL.md lists. parseLine routes a
// reply under an integer id as the response to that id. Run it as the
// CI fuzz job does:
//
//	go test ./internal/rpc -run '^$' -fuzz '^FuzzServerLine$' -fuzztime 30s
func FuzzServerLine(f *testing.F) {
	codes := protocolCodes(f)
	eng := jobs.New(jobs.Options{Workers: 1})
	f.Cleanup(eng.Close)
	eng.Drain(context.Background())
	srvEnd, cliEnd := net.Pipe()
	f.Cleanup(func() {
		srvEnd.Close()
		cliEnd.Close()
	})
	go io.Copy(io.Discard, cliEnd) // a pump's writes, should any event come
	c := &serverConn{srv: NewServer(eng, "fuzz.sock"), nc: srvEnd, client: "conn-1", subs: make(map[int]func())}

	for name := range methods {
		f.Add([]byte(`{"jsonrpc":"2.0","id":1,"method":"` + name + `","params":{"id":"j1"}}`))
	}
	for _, seed := range []string{
		`{"jsonrpc":"2.0","id":2,"method":"job.status","params":{"id":7}}`,
		`{"jsonrpc":"2.0","id":3,"method":"events.unsubscribe","params":[1]}`,
		`{"jsonrpc":"2.0","id":4,"method":"no.such.method"}`,
		`{"id":5,"method":"daemon.status"}`,
		`{"jsonrpc":"2.0","id":null,"method":"daemon.status"}`,
		`{"jsonrpc":"2.0","id":"<a>&\u2028","method":"job.list","params":"x"}`,
		`{"jsonrpc":"2.0","id":6,"method":"events.subscribe","params":{"buffer":1000000000000000}}`,
		`{"jsonrpc":"2.0","id":7,`,
		`{"jsonrpc":"2.0","id":8,"method":5}`,
		`{"jsonrpc":2,"id":9,"method":"daemon.status"}`,
		`[1]`,
		`0`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		defer c.cancelSubs()
		out, _ := c.reply(line)
		var req Request
		isJSON := json.Valid(line)
		decodeErr := json.Unmarshal(line, &req)
		valid := decodeErr == nil && req.JSONRPC == "2.0" && req.Method != ""
		if len(line) == 0 || valid && req.ID == nil {
			if out != nil {
				t.Fatalf("line %q got %q, want no reply", line, out)
			}
			return
		}
		if len(out) == 0 || bytes.IndexByte(out, '\n') != len(out)-1 {
			t.Fatalf("line %q got %q, want one reply line", line, out)
		}
		var resp Response
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("line %q got %q: %v", line, out, err)
		}
		var wantID []byte
		if isJSON && req.ID != nil {
			wantID, _ = json.Marshal(req.ID)
		}
		gotID := []byte(nil)
		if resp.ID != nil {
			gotID = *resp.ID
		}
		switch {
		case !bytes.Equal(gotID, wantID):
			t.Fatalf("line %q got %q, want id %s", line, out, wantID)
		case !isJSON && (resp.Error == nil || resp.Error.Code != CodeParseError):
			t.Fatalf("line %q got %q, want a parse error", line, out)
		case isJSON && !valid && (resp.Error == nil || resp.Error.Code != CodeInvalidRequest):
			t.Fatalf("line %q got %q, want an invalid request error", line, out)
		case (resp.Result == nil) == (resp.Error == nil):
			t.Fatalf("line %q got %q, want a result or an error", line, out)
		case resp.Error != nil && !codes[resp.Error.Code]:
			t.Fatalf("line %q got %q: code %d is not in docs/PROTOCOL.md", line, out, resp.Error.Code)
		}
		if id, err := strconv.Atoi(string(gotID)); err == nil {
			if n, routed, presp := parseLine(out); n != nil || presp == nil || routed != id {
				t.Fatalf("line %q got %q, which parseLine routes as (%+v, %d, %+v)", line, out, n, routed, presp)
			}
		}
	})
}

// TestNonRequestLinesAnsweredUnderTheirID holds the reply bytes for
// lines that are not request-shaped: JSON whose members have the wrong
// type gets -32600 under the id it carries (or without one when it has
// none), and only a line that is not JSON gets -32700 without an id.
// None of them reaches a method, so the connection needs no engine.
func TestNonRequestLinesAnsweredUnderTheirID(t *testing.T) {
	c := &serverConn{}
	for _, tc := range []struct{ line, want string }{
		{`{"jsonrpc":"2.0","id":8,"method":5}`,
			`{"jsonrpc":"2.0","id":8,"error":{"code":-32600,"message":"invalid request: json: cannot unmarshal number into Go struct field Request.method of type string"}}`},
		{`{"jsonrpc":2,"id":"a<b>","method":"daemon.status"}`,
			`{"jsonrpc":"2.0","id":"a\u003cb\u003e","error":{"code":-32600,"message":"invalid request: json: cannot unmarshal number into Go struct field Request.jsonrpc of type string"}}`},
		{`{"jsonrpc":"2.0","method":5}`,
			`{"jsonrpc":"2.0","error":{"code":-32600,"message":"invalid request: json: cannot unmarshal number into Go struct field Request.method of type string"}}`},
		{`[1]`,
			`{"jsonrpc":"2.0","error":{"code":-32600,"message":"invalid request: json: cannot unmarshal array into Go value of type rpc.Request"}}`},
		{`0`,
			`{"jsonrpc":"2.0","error":{"code":-32600,"message":"invalid request: json: cannot unmarshal number into Go value of type rpc.Request"}}`},
		{`{"jsonrpc":"2.0","id":8,"method":5`,
			`{"jsonrpc":"2.0","error":{"code":-32700,"message":"parse error: unexpected end of JSON input"}}`},
	} {
		out, drain := c.reply([]byte(tc.line))
		if string(out) != tc.want+"\n" || drain {
			t.Errorf("line %s:\n got %s want %s", tc.line, out, tc.want)
		}
	}
}

// recordingConn is a connection end that hands a copy of every write
// to the test before making it.
type recordingConn struct {
	net.Conn
	writes chan []byte
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.writes <- bytes.Clone(b)
	return c.Conn.Write(b)
}

// TestPumpWritesBurstsInOrder: the events waiting in a subscription's
// channel go out in publish order, one event per line, with the job
// filter applied, as one write per batch: a burst waiting when the
// pump starts, and a burst published while the pump is blocked writing,
// each take one write; a burst larger than pumpBatch is cut into
// writes of whole lines.
func TestPumpWritesBurstsInOrder(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	defer srvEnd.Close()
	defer cliEnd.Close()
	rc := &recordingConn{Conn: srvEnd, writes: make(chan []byte, 64)}
	c := &serverConn{nc: rc}
	ch := make(chan jobs.Event, 128)
	r := bufio.NewReader(cliEnd)

	next := 0
	publish := func(count int, detail string) {
		for range count {
			job := "j1"
			if next%3 == 2 {
				job = "j2"
			}
			ch <- jobs.Event{Type: "trace", JobID: job, Trace: &agentring.TraceEvent{Step: next, Kind: "move", Detail: detail}}
			next++
		}
	}
	expect := func(from, to int, detail string) {
		t.Helper()
		for i := from; i < to; i++ {
			if i%3 == 2 {
				continue // j2's events are filtered out
			}
			line, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatal(err)
			}
			want := refereeEvent(t, jobs.Event{Type: "trace", JobID: "j1", Trace: &agentring.TraceEvent{Step: i, Kind: "move", Detail: detail}})
			if !bytes.Equal(line, want) {
				t.Fatalf("line for event %d:\n got %s want %s", i, line, want)
			}
		}
	}

	publish(10, "")
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		c.pump(ch, "j1", func() {})
	}()
	expect(0, 10, "")
	if n := len(rc.writes); n != 1 {
		t.Fatalf("a waiting burst took %d writes, want 1", n)
	}
	<-rc.writes

	publish(1, "")
	<-rc.writes // the pump holds event 10 and is blocked writing it
	publish(30, "")
	expect(10, 41, "")
	if n := len(rc.writes); n != 1 {
		t.Fatalf("a burst published during a write took %d writes, want 1", n)
	}
	<-rc.writes

	big := strings.Repeat("x", 4<<10)
	publish(60, big)
	expect(41, 101, big)
	close(ch)
	<-pumped
	close(rc.writes)
	writes, lineLen := 0, len(refereeEvent(t, jobs.Event{Type: "trace", JobID: "j1", Trace: &agentring.TraceEvent{Step: 100, Kind: "move", Detail: big}}))
	for w := range rc.writes {
		writes++
		if !bytes.HasSuffix(w, []byte("\n")) || len(w) >= pumpBatch+lineLen {
			t.Errorf("a write of %d bytes: want whole lines, under %d bytes", len(w), pumpBatch+lineLen)
		}
	}
	if writes < 2 {
		t.Errorf("40 lines of about %d bytes took %d writes, want them cut at %d bytes", lineLen, writes, pumpBatch)
	}
}
