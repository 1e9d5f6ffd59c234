// Package rpc is the agentringd wire layer: JSON-RPC 2.0 over a Unix
// domain socket, one message per line (NDJSON framing, UTF-8), in the
// MolePort IPC style. It exposes the internal/jobs engine as the
// job.* / daemon.* / events.* method families and pushes job progress
// and live trace events to subscribers as id-less notifications.
//
// Two communication patterns share one connection:
//
//	client → daemon: {"jsonrpc":"2.0","id":1,"method":"job.submit","params":{...}}
//	daemon → client: {"jsonrpc":"2.0","id":1,"result":{...}}
//
// and, after events.subscribe:
//
//	daemon → client: {"jsonrpc":"2.0","method":"event.job","params":{...}}   (no id)
//	daemon → client: {"jsonrpc":"2.0","method":"event.trace","params":{...}} (no id)
//
// The full method list, parameter shapes and error-code table live in
// docs/PROTOCOL.md; ProtocolVersion is surfaced by daemon.status so
// clients can negotiate compatibility.
//
// The server's methods are one table, methods, from name to handler;
// each handler takes its params already decoded into its own type.
// Every line, in both directions, is written by one appender,
// appendLine: it marshals the payload (a request's params, a result, an
// error or an event) once and appends the fixed envelope around those
// bytes, which yields json.Marshal of the Request, Response or
// Notification envelope byte for byte. A subscription's pump sends the
// events already waiting in its channel, in publish order, as one
// write of at most about pumpBatch bytes. The Client decodes each line
// once into one envelope and routes it by the presence of an id: a
// notification goes to Events, a response to the Call waiting on its
// integer id, and anything else is skipped.
package rpc
