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
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			c.writeError(nil, &Error{Code: CodeParseError, Message: "parse error: " + err.Error()})
			continue
		}
		if req.JSONRPC != "2.0" || req.Method == "" {
			c.writeError(req.ID, &Error{Code: CodeInvalidRequest, Message: `invalid request: need "jsonrpc":"2.0" and a method`})
			continue
		}
		result, rpcErr := c.dispatch(req)
		if req.ID == nil {
			// Client-side notifications get no response by JSON-RPC rules.
			continue
		}
		if rpcErr != nil {
			c.writeError(req.ID, rpcErr)
			continue
		}
		c.writeResult(req.ID, result)
		if req.Method == "daemon.drain" {
			// Signal only after the response is on the wire, so the
			// requesting client sees its ack before shutdown can close the
			// connection out from under it.
			c.srv.signalDrain()
		}
	}
	// Scanner errors (including client disconnect) just end the
	// connection; cancelSubs above unwedges any pump goroutines.
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

func (c *serverConn) dispatch(req Request) (any, *Error) {
	eng := c.srv.Engine
	switch req.Method {
	case "job.submit":
		var spec jobs.Spec
		if err := unmarshalParams(req.Params, &spec); err != nil {
			return nil, err
		}
		snap, err := eng.Submit(c.client, spec)
		if err != nil {
			return nil, engineError(err)
		}
		return snap, nil
	case "job.status":
		var p idParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		snap, err := eng.Status(p.ID)
		if err != nil {
			return nil, engineError(err)
		}
		return snap, nil
	case "job.list":
		return eng.List(), nil
	case "job.result":
		var p idParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		res, err := eng.Result(p.ID)
		if err != nil {
			return nil, engineError(err)
		}
		return res, nil
	case "job.cancel":
		var p idParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		snap, err := eng.Cancel(p.ID)
		if err != nil {
			return nil, engineError(err)
		}
		return snap, nil
	case "events.subscribe":
		var p subscribeParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return c.subscribe(p), nil
	case "events.unsubscribe":
		var p subscribeResult
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		c.smu.Lock()
		cancel, ok := c.subs[p.Subscription]
		delete(c.subs, p.Subscription)
		c.smu.Unlock()
		if !ok {
			return nil, &Error{Code: CodeNoSubscription, Message: fmt.Sprintf("no subscription %d", p.Subscription)}
		}
		cancel()
		return map[string]bool{"ok": true}, nil
	case "daemon.status":
		stats, err := json.Marshal(eng.Stats())
		if err != nil {
			return nil, &Error{Code: CodeInternal, Message: err.Error()}
		}
		return DaemonStatus{
			Protocol: ProtocolVersion,
			Version:  Version,
			PID:      os.Getpid(),
			Socket:   c.srv.Socket,
			Stats:    stats,
		}, nil
	case "daemon.drain":
		// The drain signal itself fires in serve(), after this method's
		// response has been written.
		return map[string]bool{"draining": true}, nil
	default:
		return nil, &Error{Code: CodeMethodNotFound, Message: fmt.Sprintf("unknown method %q", req.Method)}
	}
}

// subscribe registers an engine listener and starts the pump goroutine
// that forwards its events as event.job / event.trace notifications.
func (c *serverConn) subscribe(p subscribeParams) subscribeResult {
	ch, cancel := c.srv.Engine.Subscribe(p.Buffer)
	c.smu.Lock()
	c.subSeq++
	id := c.subSeq
	c.subs[id] = cancel
	c.smu.Unlock()

	go c.pump(ch, p.Job, cancel)
	return subscribeResult{Subscription: id}
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
				if batch, err = appendEvent(batch, ev); err != nil {
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

func unmarshalParams(raw json.RawMessage, into any) *Error {
	if len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return &Error{Code: CodeInvalidParams, Message: "invalid params: " + err.Error()}
	}
	return nil
}

// engineError maps jobs engine errors onto the protocol's application
// error codes.
func engineError(err error) *Error {
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

func (c *serverConn) writeResult(id *json.RawMessage, result any) {
	line, err := resultLine(id, result)
	if err != nil {
		c.writeError(id, &Error{Code: CodeInternal, Message: err.Error()})
		return
	}
	c.write(line)
}

func (c *serverConn) writeError(id *json.RawMessage, rpcErr *Error) {
	line, err := json.Marshal(Response{JSONRPC: "2.0", ID: id, Error: rpcErr})
	if err != nil {
		return
	}
	c.write(append(line, '\n'))
}

// resultLine is the response line answering id with result: json.Marshal
// of the Response envelope plus a newline, byte for byte. The result's
// own json.Marshal bytes are already compact and HTML-escaped, which is
// all the envelope's encoder would do to them again, so the envelope is
// assembled around them instead.
func resultLine(id *json.RawMessage, result any) ([]byte, error) {
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	var rawID []byte
	if id != nil {
		// The client's id, compacted and escaped as the envelope's
		// encoder writes it.
		if rawID, err = json.Marshal(id); err != nil {
			return nil, err
		}
	}
	line := make([]byte, 0, len(raw)+len(rawID)+64) // 64: room for the envelope
	line = append(line, `{"jsonrpc":"2.0"`...)
	if id != nil {
		line = append(append(line, `,"id":`...), rawID...)
	}
	line = append(append(line, `,"result":`...), raw...)
	return append(line, "}\n"...), nil
}

// appendEvent appends the notification line carrying ev, event.trace for
// a trace event and event.job for the rest, assembled as resultLine is:
// json.Marshal of the Notification envelope plus a newline.
func appendEvent(dst []byte, ev jobs.Event) ([]byte, error) {
	params, err := json.Marshal(ev)
	if err != nil {
		return dst, err
	}
	method := "event.job"
	if ev.Type == "trace" {
		method = "event.trace"
	}
	dst = append(append(dst, `{"jsonrpc":"2.0","method":"`...), method...)
	dst = append(append(dst, `","params":`...), params...)
	return append(dst, "}\n"...), nil
}

// write puts whole lines on the connection under its write lock, so
// responses and the pumps' batches never interleave.
func (c *serverConn) write(lines []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.nc.Write(lines)
	return err
}
