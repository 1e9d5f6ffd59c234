package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agentring/internal/jobs"
	"agentring/internal/rpc"
)

// startDaemon brings up an in-process engine + rpc server for the CLI
// to talk to, returning the socket path.
func startDaemon(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "arc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	socket := filepath.Join(dir, "d.sock")

	eng := jobs.New(jobs.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv := rpc.NewServer(eng, socket)
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
	})
	return socket
}

// blockerSpec is the -spec of an exploration far too large to finish
// within a test (see internal/jobs' blockerSpec). With budgetMS 0 it
// holds the daemon's single runner until it is cancelled; otherwise it
// finishes, truncated, after budgetMS milliseconds.
func blockerSpec(t *testing.T, budgetMS int) string {
	t.Helper()
	b, err := json.Marshal(jobs.Spec{Kind: jobs.KindExplore, Algorithm: "native", N: 14, K: 7,
		Workload: "clustered", MaxDurationMS: budgetMS})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var sweepArgs = []string{
	"-kind", "sweep", "-alg", "native",
	"-ns", "16,24", "-ks", "2,4", "-seed", "7", "-scheduler", "synchronous",
}

// TestDaemonMatchesLocal is the CLI half of the byte-identity
// guarantee: `submit -wait -json` through the daemon and
// `submit -local -json` in-process print the same bytes.
func TestDaemonMatchesLocal(t *testing.T) {
	socket := startDaemon(t)

	var viaDaemon bytes.Buffer
	args := append([]string{"submit", "-socket", socket, "-json", "-wait"}, sweepArgs...)
	if err := run(args, &viaDaemon); err != nil {
		t.Fatalf("submit -wait: %v", err)
	}

	var local bytes.Buffer
	args = append([]string{"submit", "-local", "-json", "-workers", "1"}, sweepArgs...)
	if err := run(args, &local); err != nil {
		t.Fatalf("submit -local: %v", err)
	}

	if !bytes.Equal(viaDaemon.Bytes(), local.Bytes()) {
		t.Errorf("daemon and local results differ:\n daemon: %s\n local:  %s", viaDaemon.String(), local.String())
	}
	var res jobs.Result
	if err := json.Unmarshal(local.Bytes(), &res); err != nil {
		t.Fatalf("local output is not a result payload: %v", err)
	}
	if len(res.Cells) != 4 {
		t.Errorf("want 4 cells, got %d", len(res.Cells))
	}
}

func TestSubmitStatusListResult(t *testing.T) {
	socket := startDaemon(t)

	var out bytes.Buffer
	args := append([]string{"submit", "-socket", socket, "-json"}, sweepArgs...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("submit -json output: %v\n%s", err, out.String())
	}
	if snap.ID == "" || snap.Total != 4 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}

	// Human-readable status line.
	out.Reset()
	if err := run([]string{"status", "-socket", socket, snap.ID}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), snap.ID) || !strings.Contains(out.String(), "sweep") {
		t.Errorf("status line: %q", out.String())
	}

	out.Reset()
	if err := run([]string{"list", "-socket", socket}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), snap.ID) {
		t.Errorf("list output: %q", out.String())
	}

	// result (indented) once the job lands.
	cl, err := rpc.Dial(socket)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := waitFinal(cl, snap.ID); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"result", "-socket", socket, snap.ID}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"cells"`) {
		t.Errorf("result output: %q", out.String())
	}
}

// TestWatchStreamsToFinal: watch on a queued job streams its lifecycle
// and terminates at the final state. A blocker exploration with a 300ms
// budget keeps the single runner busy so the watched job is still
// queued when the watch subscribes.
func TestWatchStreamsToFinal(t *testing.T) {
	socket := startDaemon(t)

	blocker := []string{"submit", "-socket", socket, "-json", "-spec", blockerSpec(t, 300)}
	var out bytes.Buffer
	if err := run(blocker, &out); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	args := append([]string{"submit", "-socket", socket, "-json", "-trace-events", "5"}, sweepArgs...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"watch", "-socket", socket, snap.ID}, &out); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), snap.ID) {
		t.Errorf("watch output has no mention of %s:\n%s", snap.ID, out.String())
	}
	// watch either streamed to the done event or (if the job won the
	// race) printed the final snapshot; both must show a final state.
	if !strings.Contains(out.String(), "done") {
		t.Errorf("watch output never reached a final state:\n%s", out.String())
	}
}

func TestWatchFinishedJobReturnsImmediately(t *testing.T) {
	socket := startDaemon(t)
	var out bytes.Buffer
	args := append([]string{"submit", "-socket", socket, "-json", "-wait"}, sweepArgs...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	// The only job is j1 and it is done; watch must not hang.
	out.Reset()
	if err := run([]string{"watch", "-socket", socket, "j1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "done") {
		t.Errorf("watch of finished job: %q", out.String())
	}
}

func TestCancelAndDaemonStatus(t *testing.T) {
	socket := startDaemon(t)

	// Blocker keeps the runner busy so the second job stays queued and
	// is cancellable deterministically.
	var out bytes.Buffer
	if err := run([]string{"submit", "-socket", socket, "-json", "-spec", blockerSpec(t, 0)}, &out); err != nil {
		t.Fatal(err)
	}
	var blocker jobs.Snapshot
	if err := json.Unmarshal(out.Bytes(), &blocker); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	args := append([]string{"submit", "-socket", socket, "-json"}, sweepArgs...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"cancel", "-socket", socket, snap.ID}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), snap.ID) || !strings.Contains(out.String(), "cancelled") {
		t.Errorf("cancel output: %q", out.String())
	}

	out.Reset()
	if err := run([]string{"daemon-status", "-socket", socket}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "protocol 1") || !strings.Contains(s, "jobs:") {
		t.Errorf("daemon-status output: %q", s)
	}

	out.Reset()
	if err := run([]string{"cancel", "-socket", socket, blocker.ID}, &out); err != nil {
		t.Fatal(err)
	}
}

// resultText is how `result` prints the result of a native run on the
// 8-ring from homes 0 and 3: re-indented, its keys sorted.
const resultText = `{
  "cells": [
    {
      "algorithm": "native(k)",
      "gaps": [
        4,
        4
      ],
      "homes": [
        0,
        3
      ],
      "index": 0,
      "k": 2,
      "max_moves": 17,
      "messages": 0,
      "n": 8,
      "peak_bits": 24,
      "peak_words": 8,
      "positions": [
        0,
        4
      ],
      "rounds": 0,
      "seed": 1,
      "steps": 27,
      "symmetry_degree": 1,
      "topology": "ring(8)",
      "total_moves": 25,
      "uniform": true
    }
  ],
  "kind": "run"
}
`

// TestQueryOutputs holds what the one-call subcommands print: each
// human rendering, and under -json the daemon's result bytes, which
// equal json.Marshal of the decoded result.
func TestQueryOutputs(t *testing.T) {
	socket := startDaemon(t)
	query := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{args[0], "-socket", socket}, args[1:]...), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	if got := query("list"); got != "no jobs\n" {
		t.Errorf("list of no jobs: %q", got)
	}
	query("submit", "-wait", "-kind", "run", "-alg", "native", "-n", "8", "-homes", "0,3")
	for _, args := range [][]string{{"status", "j1"}, {"list"}, {"cancel", "j1"}} {
		if got, want := query(args...), "j1   run     native     done  1/1\n"; got != want {
			t.Errorf("%v printed %q, want %q", args, got, want)
		}
	}
	if got := query("result", "j1"); got != resultText {
		t.Errorf("result printed\n%s\nwant\n%s", got, resultText)
	}
	status := fmt.Sprintf("agentringd/0.1 protocol 1 pid %d on %s\njobs: 0 queued, 0 running, 1 done, 0 failed, 0 cancelled\nevents: 0 subscriber(s), 0 dropped", os.Getpid(), socket)
	if got := query("daemon-status"); got != status+"\n" {
		t.Errorf("daemon-status printed %q, want %q", got, status+"\n")
	}
	for _, tc := range []struct {
		args []string
		into any
	}{
		{[]string{"status", "-json", "j1"}, new(jobs.Snapshot)},
		{[]string{"list", "-json"}, new([]jobs.Snapshot)},
		{[]string{"result", "-json", "j1"}, new(jobs.Result)},
		{[]string{"cancel", "-json", "j1"}, new(jobs.Snapshot)},
		{[]string{"daemon-status", "-json"}, new(rpc.DaemonStatus)},
		{[]string{"drain", "-json"}, new(map[string]bool)},
	} {
		got := query(tc.args...)
		if err := json.Unmarshal([]byte(got), tc.into); err != nil {
			t.Fatalf("%v printed %q: %v", tc.args, got, err)
		}
		want, err := json.Marshal(tc.into)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want)+"\n" {
			t.Errorf("%v printed %q, want %q", tc.args, got, want)
		}
	}
	if got := query("drain"); got != "daemon draining\n" {
		t.Errorf("drain printed %q", got)
	}
}

func TestSpecFlagOverridesFieldFlags(t *testing.T) {
	socket := startDaemon(t)
	var out bytes.Buffer
	spec := `{"kind":"sweep","algorithm":"native","ns":[16],"ks":[2],"seed":7,"scheduler":"synchronous"}`
	if err := run([]string{"submit", "-socket", socket, "-json", "-spec", spec}, &out); err != nil {
		t.Fatal(err)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total != 1 || snap.Spec.Algorithm != "native" {
		t.Errorf("snapshot from -spec: %+v", snap)
	}
}

func TestErrorsSurface(t *testing.T) {
	socket := startDaemon(t)

	if err := run([]string{"status", "-socket", socket, "j999"}, &bytes.Buffer{}); err == nil {
		t.Error("status of unknown job must error")
	}
	for _, cmd := range []string{"status", "result", "cancel"} {
		err := run([]string{cmd, "-socket", socket}, &bytes.Buffer{})
		if err == nil || err.Error() != "expected exactly one job id argument" {
			t.Errorf("%s without a job id: %v", cmd, err)
		}
	}
	err := run([]string{"frobnicate"}, &bytes.Buffer{})
	if err == nil || err.Error() != `unknown command "frobnicate" (try 'agentring help')` {
		t.Errorf("unknown command: %v", err)
	}
	if err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Error("missing command must error")
	}
	err = run([]string{"daemon-status", "-socket", "/nonexistent/never.sock"}, &bytes.Buffer{})
	if err == nil || !strings.HasPrefix(err.Error(), "dial /nonexistent/never.sock: ") || !strings.HasSuffix(err.Error(), " (is agentringd running?)") {
		t.Errorf("dial failure message: %v", err)
	}
	args := append([]string{"submit", "-socket", socket, "-kind", "sweep", "-alg", "bogus"}, "-ns", "16", "-ks", "2")
	if err := run(args, &bytes.Buffer{}); err == nil {
		t.Error("bad algorithm must surface the daemon's invalid-spec error")
	}
}

func TestParseIntList(t *testing.T) {
	got, err := jobs.ParseInts("16, 24,32")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 16 || got[1] != 24 || got[2] != 32 {
		t.Fatalf("ParseInts = %v", got)
	}
	if nilList, err := jobs.ParseInts(""); err != nil || nilList != nil {
		t.Fatalf("empty list = %v, %v", nilList, err)
	}
	if _, err := jobs.ParseInts("16,x"); err == nil {
		t.Error("bad element must error")
	}
}

func TestHelp(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"help"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "submit") {
		t.Errorf("help output: %q", out.String())
	}
}
