package rpc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"agentring/internal/jobs"
)

// DefaultSocket is where agentringd listens and the agentring client
// dials when no -socket flag is given.
func DefaultSocket() string {
	return filepath.Join(os.TempDir(), "agentringd.sock")
}

// Client is a JSON-RPC connection to agentringd. One goroutine reads
// the socket and demultiplexes: responses resolve their pending Call by
// id, notifications fan into the Events channel. Safe for concurrent
// Calls.
type Client struct {
	nc     net.Conn
	events chan Notification

	wmu sync.Mutex // serializes request lines

	mu      sync.Mutex
	seq     int
	pending map[int]chan Response
	err     error // terminal read-loop error
	done    chan struct{}
}

// Dial connects to the daemon's Unix socket.
func Dial(socket string) (*Client, error) {
	nc, err := net.Dial("unix", socket)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc:      nc,
		events:  make(chan Notification, 256),
		pending: make(map[int]chan Response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Events delivers daemon notifications (event.job, event.trace) after
// an events.subscribe call. The channel is closed when the connection
// ends; a full buffer drops the oldest pending notification first.
func (c *Client) Events() <-chan Notification { return c.events }

// Close severs the connection; in-flight Calls fail.
func (c *Client) Close() error { return c.nc.Close() }

func (c *Client) readLoop() {
	sc := bufio.NewScanner(c.nc)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		n, id, resp := parseLine(sc.Bytes())
		switch {
		case n != nil:
			select {
			case c.events <- *n:
			default:
				// Slow consumer: shed the oldest to keep the loop live.
				select {
				case <-c.events:
				default:
				}
				select {
				case c.events <- *n:
				default:
				}
			}
		case resp != nil:
			c.mu.Lock()
			ch, ok := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if ok {
				ch <- *resp
			}
		}
	}
	err := sc.Err()
	if err == nil {
		err = fmt.Errorf("rpc: connection closed")
	}
	c.mu.Lock()
	c.err = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	close(c.events)
	close(c.done)
}

// envelope is every member an incoming line can carry, decoded in one
// pass. ID is a pointer so that a null id reads as absent, as it does
// in Response. Error stays raw until the line is known to be a
// response: a notification line is delivered whatever its error member
// holds.
type envelope struct {
	JSONRPC string           `json:"jsonrpc"`
	ID      *json.RawMessage `json:"id"`
	Method  string           `json:"method"`
	Params  json.RawMessage  `json:"params"`
	Result  json.RawMessage  `json:"result"`
	Error   json.RawMessage  `json:"error"`
}

// parseLine decodes one line once and routes it: an id-less line with a
// method is a notification, a line with an integer id is the response
// to the call with that id, and anything else (malformed JSON, a member
// of the wrong type, a missing or non-integer id) is skipped, with both
// results nil.
func parseLine(line []byte) (*Notification, int, *Response) {
	var env envelope
	if json.Unmarshal(line, &env) != nil {
		return nil, 0, nil
	}
	if env.ID == nil {
		if env.Method == "" {
			return nil, 0, nil
		}
		return &Notification{JSONRPC: env.JSONRPC, Method: env.Method, Params: env.Params}, 0, nil
	}
	// A JSON integer that fits an int, as json.Unmarshal into an int
	// would accept it; the raw bytes are one valid JSON value, so a
	// string, a fraction or an exponent fails here as it does there.
	id, err := strconv.Atoi(string(*env.ID))
	if err != nil {
		return nil, 0, nil
	}
	resp := &Response{JSONRPC: env.JSONRPC, ID: env.ID, Result: env.Result}
	if env.Error != nil {
		// Repeated error members merge into one object as the decoder
		// meets them, so the object comes from the whole line; only an
		// error response pays this second pass.
		var e struct {
			Error *Error `json:"error"`
		}
		if json.Unmarshal(line, &e) != nil {
			return nil, 0, nil
		}
		resp.Error = e.Error
	}
	return nil, id, resp
}

// Call performs one request/response round trip. A non-nil result is
// filled from the response payload; protocol-level failures come back
// as *Error (switch on Code).
func (c *Client) Call(method string, params, result any) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.seq++
	id := c.seq
	ch := make(chan Response, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	rawID := json.RawMessage(strconv.Itoa(id))
	line, err := appendLine(nil, &rawID, method, "params", params)
	if err == nil {
		c.wmu.Lock()
		_, err = c.nc.Write(line)
		c.wmu.Unlock()
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return err
	}
	if resp.Error != nil {
		return resp.Error
	}
	if result != nil && len(resp.Result) > 0 {
		if raw, ok := result.(*json.RawMessage); ok {
			// The line's one decode already holds these bytes.
			*raw = resp.Result
			return nil
		}
		return json.Unmarshal(resp.Result, result)
	}
	return nil
}

// Convenience wrappers for the method families the CLI uses.

// Submit submits a job spec and returns its initial snapshot.
func (c *Client) Submit(spec jobs.Spec) (jobs.Snapshot, error) {
	var snap jobs.Snapshot
	err := c.Call("job.submit", spec, &snap)
	return snap, err
}

// Status fetches one job's snapshot.
func (c *Client) Status(id string) (jobs.Snapshot, error) {
	var snap jobs.Snapshot
	err := c.Call("job.status", idParams{ID: id}, &snap)
	return snap, err
}

// List fetches every job's snapshot in submission order.
func (c *Client) List() ([]jobs.Snapshot, error) {
	var out []jobs.Snapshot
	err := c.Call("job.list", nil, &out)
	return out, err
}

// Result fetches a done job's payload.
func (c *Client) Result(id string) (jobs.Result, error) {
	var res jobs.Result
	err := c.Call("job.result", idParams{ID: id}, &res)
	return res, err
}

// RawResult fetches a done job's payload as the daemon's exact bytes,
// for byte-for-byte comparison against a direct jobs.Execute run.
func (c *Client) RawResult(id string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.Call("job.result", idParams{ID: id}, &raw)
	return raw, err
}

// Cancel cancels a job and returns its snapshot as of the call.
func (c *Client) Cancel(id string) (jobs.Snapshot, error) {
	var snap jobs.Snapshot
	err := c.Call("job.cancel", idParams{ID: id}, &snap)
	return snap, err
}

// Subscribe opens an event stream (job == "" for all jobs); consume it
// from Events.
func (c *Client) Subscribe(job string) (int, error) {
	var res subscribeResult
	err := c.Call("events.subscribe", subscribeParams{Job: job}, &res)
	return res.Subscription, err
}

// DaemonStatus fetches the daemon's identity and engine census.
func (c *Client) DaemonStatus() (DaemonStatus, error) {
	var st DaemonStatus
	err := c.Call("daemon.status", nil, &st)
	return st, err
}

// Drain asks the daemon to drain and exit.
func (c *Client) Drain() error {
	return c.Call("daemon.drain", nil, nil)
}
