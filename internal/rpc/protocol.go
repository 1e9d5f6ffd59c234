package rpc

import (
	"encoding/json"
	"fmt"
	"slices"
)

// ProtocolVersion is the wire protocol revision, surfaced by
// daemon.status; a client refuses to talk to a daemon whose protocol it
// does not know. Bump on any incompatible change to methods, parameter
// shapes, or error codes, and record the change in docs/PROTOCOL.md.
const ProtocolVersion = 1

// Version is the daemon implementation version string (informational;
// compatibility is negotiated on ProtocolVersion alone).
const Version = "agentringd/0.1"

// Standard JSON-RPC 2.0 error codes.
const (
	CodeParseError     = -32700
	CodeInvalidRequest = -32600
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeInternal       = -32603
)

// Application error codes (documented in docs/PROTOCOL.md).
const (
	// CodeJobNotFound: no job with the given id.
	CodeJobNotFound = 1001
	// CodeQueueFull: admission refused, the queue is at MaxQueue.
	CodeQueueFull = 1002
	// CodeQuotaExceeded: admission refused, the client is at its quota.
	CodeQuotaExceeded = 1003
	// CodeDraining: the daemon no longer accepts submissions.
	CodeDraining = 1004
	// CodeNotFinished: job.result on a job with no result payload
	// (still queued/running, cancelled, or failed).
	CodeNotFinished = 1005
	// CodeInvalidSpec: the submitted job spec does not compile.
	CodeInvalidSpec = 1006
	// CodeNoSubscription: events.unsubscribe with an unknown id.
	CodeNoSubscription = 1007
)

// Request is one JSON-RPC 2.0 request line. Notifications (no id) are
// not used client→daemon; every client line expects a response.
type Request struct {
	JSONRPC string           `json:"jsonrpc"`
	ID      *json.RawMessage `json:"id,omitempty"`
	Method  string           `json:"method"`
	Params  json.RawMessage  `json:"params,omitempty"`
}

// Error is a JSON-RPC 2.0 error object; it implements error so client
// code can errors.As on it and switch on Code.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
	Data    any    `json:"data,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message)
}

// Response is one JSON-RPC 2.0 response line.
type Response struct {
	JSONRPC string           `json:"jsonrpc"`
	ID      *json.RawMessage `json:"id,omitempty"`
	Result  json.RawMessage  `json:"result,omitempty"`
	Error   *Error           `json:"error,omitempty"`
}

// Notification is a daemon→client push (no id): the event streams
// behind events.subscribe.
type Notification struct {
	JSONRPC string          `json:"jsonrpc"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params,omitempty"`
}

// appendLine appends the line of a Request, Response or Notification
// envelope to dst: json.Marshal of the envelope plus a newline, byte for
// byte, with payload under member ("params", "result" or "error"). A nil
// id, an empty method and a nil payload are left out, as their omitempty
// tags leave them out. The payload is marshalled once and its bytes,
// already compact and HTML-escaped, are appended as they are; only the
// id and the method go through json.Marshal on their own, since a peer
// may send an id with spaces and a caller may name any method. On error
// dst is returned unchanged.
func appendLine(dst []byte, id *json.RawMessage, method, member string, payload any) ([]byte, error) {
	var rawID, rawMethod, raw []byte
	var err error
	if id != nil {
		if rawID, err = json.Marshal(id); err != nil {
			return dst, err
		}
	}
	if method != "" {
		rawMethod, _ = json.Marshal(method) // a string always encodes
	}
	if payload != nil {
		if raw, err = json.Marshal(payload); err != nil {
			return dst, err
		}
	}
	dst = slices.Grow(dst, len(rawID)+len(rawMethod)+len(member)+len(raw)+38) // 38: the envelope's own bytes
	dst = append(dst, `{"jsonrpc":"2.0"`...)
	if rawID != nil {
		dst = append(append(dst, `,"id":`...), rawID...)
	}
	if rawMethod != nil {
		dst = append(append(dst, `,"method":`...), rawMethod...)
	}
	if raw != nil {
		dst = append(append(append(append(dst, `,"`...), member...), `":`...), raw...)
	}
	return append(dst, "}\n"...), nil
}

// DaemonStatus is the daemon.status result.
type DaemonStatus struct {
	Protocol int    `json:"protocol"`
	Version  string `json:"version"`
	PID      int    `json:"pid"`
	Socket   string `json:"socket"`
	// Stats mirrors jobs.Stats (queued/running/done/... census).
	Stats json.RawMessage `json:"stats"`
}
