package rpc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"

	"agentring/internal/jobs"
)

// maxLine bounds one NDJSON request line (a submitted spec with
// explicit homes for a large ring still fits comfortably).
const maxLine = 4 << 20

// Server serves the JSON-RPC protocol over a net.Listener, dispatching
// onto a jobs.Engine. Each connection gets a stable client identity
// ("conn-1", "conn-2", ...) used for the engine's per-client quotas.
type Server struct {
	Engine *jobs.Engine
	// Socket is the listen path, echoed by daemon.status.
	Socket string

	mu      sync.Mutex
	connSeq int
	conns   map[*serverConn]struct{}
	closed  bool
	drainCh chan struct{}
	wg      sync.WaitGroup
}

// NewServer wraps an engine. The server owns no listener; pass one to
// Serve (cmd/agentringd binds the Unix socket so it can also handle
// stale-socket recovery).
func NewServer(engine *jobs.Engine, socket string) *Server {
	return &Server{
		Engine:  engine,
		Socket:  socket,
		conns:   make(map[*serverConn]struct{}),
		drainCh: make(chan struct{}),
	}
}

// DrainRequested is signalled (closed) the first time a client calls
// daemon.drain; the daemon main loop treats it like SIGTERM.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainCh }

// Serve accepts connections until the listener is closed. It returns
// nil on a clean shutdown (Close), the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.connSeq++
		c := &serverConn{
			srv:    s,
			nc:     nc,
			client: fmt.Sprintf("conn-%d", s.connSeq),
			subs:   make(map[int]func()),
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Close stops accepting state, severs every live connection and waits
// for their handlers to exit. The caller closes the listener.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) dropConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) signalDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.drainCh:
	default:
		close(s.drainCh)
	}
}

// serverConn is one client connection: a serial request loop plus any
// number of subscription pump goroutines sharing the write lock.
type serverConn struct {
	srv    *Server
	nc     net.Conn
	client string

	wmu sync.Mutex // serializes whole NDJSON lines onto nc

	smu    sync.Mutex // guards subs
	subSeq int
	subs   map[int]func() // subscription id -> engine unsubscribe
}

func (c *serverConn) serve() {
	defer c.srv.wg.Done()
	defer c.srv.dropConn(c)
	defer c.nc.Close()
	defer c.cancelSubs()

	sc := bufio.NewScanner(c.nc)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		out, drain := c.reply(sc.Bytes())
		if out != nil {
			c.write(out)
		}
		if drain {
			// Signal only after the response is on the wire, so the
			// requesting client sees its ack before shutdown can close the
			// connection out from under it.
			c.srv.signalDrain()
		}
	}
	// Scanner errors (a line past maxLine, a client disconnect) just end
	// the connection; cancelSubs above unwedges any pump goroutines.
}

// reply answers one request line: the response line to write, nil for
// a blank line or a valid request without an id (a JSON-RPC
// notification gets no response), and whether the line was an answered
// daemon.drain.
func (c *serverConn) reply(line []byte) (out []byte, drain bool) {
	if len(line) == 0 {
		return nil, false
	}
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return errorLine(nil, &Error{Code: CodeParseError, Message: "parse error: " + err.Error()}), false
	}
	if req.JSONRPC != "2.0" || req.Method == "" {
		return errorLine(req.ID, &Error{Code: CodeInvalidRequest, Message: `invalid request: need "jsonrpc":"2.0" and a method`}), false
	}
	var result any
	var rpcErr *Error
	if h, ok := methods[req.Method]; ok {
		result, rpcErr = h(c, req.Params)
	} else {
		rpcErr = &Error{Code: CodeMethodNotFound, Message: fmt.Sprintf("unknown method %q", req.Method)}
	}
	if req.ID == nil {
		return nil, false
	}
	if rpcErr != nil {
		return errorLine(req.ID, rpcErr), false
	}
	out, err := appendLine(nil, req.ID, "", "result", result)
	if err != nil {
		return errorLine(req.ID, &Error{Code: CodeInternal, Message: err.Error()}), false
	}
	return out, req.Method == "daemon.drain"
}

// errorLine is the error response line answering id, or nil when rpcErr
// does not encode.
func errorLine(id *json.RawMessage, rpcErr *Error) []byte {
	out, _ := appendLine(nil, id, "", "error", rpcErr)
	return out
}

func (c *serverConn) cancelSubs() {
	c.smu.Lock()
	defer c.smu.Unlock()
	for id, cancel := range c.subs {
		delete(c.subs, id)
		cancel()
	}
}

// idParams is the shared parameter shape of the job.status /
// job.result / job.cancel methods.
type idParams struct {
	ID string `json:"id"`
}

type subscribeParams struct {
	// Buffer sizes the subscriber channel (<=0 selects the engine
	// default). Events beyond a full buffer are dropped, not queued.
	Buffer int `json:"buffer,omitempty"`
	// Job filters the stream to one job id ("" = everything).
	Job string `json:"job,omitempty"`
}

type subscribeResult struct {
	Subscription int `json:"subscription"`
}

// handler answers one method on conn c from the request's raw params.
type handler func(c *serverConn, params json.RawMessage) (any, *Error)

// methods is the daemon's JSON-RPC surface, one row per method of
// docs/PROTOCOL.md. A method whose params are a json.RawMessage accepts
// and ignores any params.
var methods = map[string]handler{
	"job.submit": handle(func(c *serverConn, spec jobs.Spec) (any, error) {
		return c.srv.Engine.Submit(c.client, spec)
	}),
	"job.status": handle(func(c *serverConn, p idParams) (any, error) {
		return c.srv.Engine.Status(p.ID)
	}),
	"job.list": handle(func(c *serverConn, _ json.RawMessage) (any, error) {
		return c.srv.Engine.List(), nil
	}),
	"job.result": handle(func(c *serverConn, p idParams) (any, error) {
		return c.srv.Engine.Result(p.ID)
	}),
	"job.cancel": handle(func(c *serverConn, p idParams) (any, error) {
		return c.srv.Engine.Cancel(p.ID)
	}),
	"events.subscribe":   handle((*serverConn).subscribe),
	"events.unsubscribe": handle((*serverConn).unsubscribe),
	"daemon.status":      handle((*serverConn).daemonStatus),
	"daemon.drain": handle(func(*serverConn, json.RawMessage) (any, error) {
		// The drain signal itself fires in serve, after this method's
		// response has been written.
		return map[string]bool{"draining": true}, nil
	}),
}

// handle adapts f to a handler: absent params decode to P's zero value,
// params that do not decode into P are invalid params, and f's error
// maps to its protocol code.
func handle[P any](f func(*serverConn, P) (any, error)) handler {
	return func(c *serverConn, raw json.RawMessage) (any, *Error) {
		var p P
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, &Error{Code: CodeInvalidParams, Message: "invalid params: " + err.Error()}
			}
		}
		result, err := f(c, p)
		if err != nil {
			return nil, engineError(err)
		}
		return result, nil
	}
}

func (c *serverConn) unsubscribe(p subscribeResult) (any, error) {
	c.smu.Lock()
	cancel, ok := c.subs[p.Subscription]
	delete(c.subs, p.Subscription)
	c.smu.Unlock()
	if !ok {
		return nil, &Error{Code: CodeNoSubscription, Message: fmt.Sprintf("no subscription %d", p.Subscription)}
	}
	cancel()
	return map[string]bool{"ok": true}, nil
}

func (c *serverConn) daemonStatus(json.RawMessage) (any, error) {
	stats, err := json.Marshal(c.srv.Engine.Stats())
	if err != nil {
		return nil, err
	}
	return DaemonStatus{
		Protocol: ProtocolVersion,
		Version:  Version,
		PID:      os.Getpid(),
		Socket:   c.srv.Socket,
		Stats:    stats,
	}, nil
}

// subscribe registers an engine listener and starts the pump goroutine
// that forwards its events as event.job / event.trace notifications.
func (c *serverConn) subscribe(p subscribeParams) (any, error) {
	ch, cancel := c.srv.Engine.Subscribe(p.Buffer)
	c.smu.Lock()
	c.subSeq++
	id := c.subSeq
	c.subs[id] = cancel
	c.smu.Unlock()

	go c.pump(ch, p.Job, cancel)
	return subscribeResult{Subscription: id}, nil
}

// pumpBatch caps the bytes a subscription's pump gathers for one write.
const pumpBatch = 64 << 10

// pump forwards a subscription's events, only job's when job is set, as
// event.job / event.trace notifications. The events already waiting in
// ch join the one that woke the pump, in publish order, and go out as
// one write once the channel is empty or the batch holds pumpBatch
// bytes.
func (c *serverConn) pump(ch <-chan jobs.Event, job string, cancel func()) {
	var batch []byte
	for ev := range ch {
		batch = batch[:0]
		var err error
		for {
			if job == "" || ev.JobID == job {
				method := "event.job"
				if ev.Type == "trace" {
					method = "event.trace"
				}
				if batch, err = appendLine(batch, nil, method, "params", ev); err != nil {
					break
				}
			}
			if len(batch) >= pumpBatch {
				break
			}
			var ok bool
			select {
			case ev, ok = <-ch:
			default:
			}
			if !ok {
				break
			}
		}
		if len(batch) > 0 {
			if werr := c.write(batch); err == nil {
				err = werr
			}
		}
		if err != nil {
			// A dead connection (or an event that does not encode):
			// unsubscribe so the engine stops feeding this channel, then
			// drain it until cancel closes it.
			cancel()
			for range ch {
			}
			return
		}
		if cap(batch) > 4*pumpBatch {
			// Swollen by a huge event (a snapshot echoing a long homes
			// list); let it go rather than hold it for the subscription's
			// life.
			batch = nil
		}
	}
}

// engineError maps jobs engine errors onto the protocol's application
// error codes; an *Error, such as a handler's own CodeNoSubscription,
// passes through unchanged.
func engineError(err error) *Error {
	if rpcErr, ok := err.(*Error); ok {
		return rpcErr
	}
	code := CodeInternal
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		code = CodeJobNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		code = CodeQueueFull
	case errors.Is(err, jobs.ErrQuota):
		code = CodeQuotaExceeded
	case errors.Is(err, jobs.ErrDraining):
		code = CodeDraining
	case errors.Is(err, jobs.ErrNotFinished):
		code = CodeNotFinished
	case errors.Is(err, jobs.ErrSpec):
		code = CodeInvalidSpec
	}
	return &Error{Code: code, Message: err.Error()}
}

// write puts whole lines on the connection under its write lock, so
// responses and the pumps' batches never interleave.
func (c *serverConn) write(lines []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.nc.Write(lines)
	return err
}
