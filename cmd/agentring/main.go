// Command agentring is the client CLI for agentringd (the resident
// simulation daemon): it submits run/sweep/explore jobs over the
// JSON-RPC Unix socket, watches their progress and live trace events,
// and fetches results.
//
// Usage:
//
//	agentring submit -kind sweep -alg native -ns 64,128 -ks 4,8   # enqueue a sweep
//	agentring submit -kind run -alg logspace -n 64 -k 8 -wait     # run and block for the result
//	agentring submit -local -kind sweep -alg native -ns 64 -ks 4  # same spec, no daemon (jobs.Execute)
//	agentring status j1                                           # one job's snapshot
//	agentring list                                                # every job
//	agentring result -json j1                                     # result payload (raw daemon bytes)
//	agentring watch j1                                            # stream progress + trace events
//	agentring cancel j1                                           # cancel queued/running
//	agentring daemon-status                                       # daemon identity + engine census
//	agentring drain                                               # graceful daemon shutdown
//
// Every subcommand takes -socket (default agentringd's default) and
// -json for machine-readable output. `submit -local -json` and
// `result -json` print the identical byte stream for the same spec —
// the equivalence the CI daemon smoke test pins down.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"agentring/internal/jobs"
	"agentring/internal/rpc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "agentring:", err)
		os.Exit(1)
	}
}

const usage = `usage: agentring <command> [flags] [args]

commands:
  submit         enqueue a job (or run it locally with -local)
  status <id>    one job's snapshot
  list           every job's snapshot
  result <id>    a done job's payload
  cancel <id>    cancel a queued or running job
  watch [id]     stream job and trace events (all jobs if no id)
  daemon-status  daemon identity, protocol and engine census
  drain          ask the daemon to drain and exit

every command takes -socket and -json; see 'agentring <command> -h'.`

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		fmt.Fprintln(out, usage)
		return errors.New("missing command")
	}
	cmd, rest := args[0], args[1:]
	if q, ok := queries[cmd]; ok {
		return runQuery(cmd, q, rest, out)
	}
	switch cmd {
	case "submit":
		return cmdSubmit(rest, out)
	case "watch":
		return cmdWatch(rest, out)
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(out, usage)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'agentring help')", cmd)
	}
}

// common is the flag pair every subcommand shares.
func common(fs *flag.FlagSet) (socket *string, jsonOut *bool) {
	socket = fs.String("socket", rpc.DefaultSocket(), "daemon unix socket path")
	jsonOut = fs.Bool("json", false, "machine-readable JSON output")
	return
}

// query is a subcommand that makes one call and prints its result.
type query struct {
	method  string
	takesID bool // the one argument is a job id, sent as {"id":...}
	// render prints the result for humans; -json prints the daemon's
	// bytes instead.
	render func(out io.Writer, raw json.RawMessage) error
}

var queries = map[string]query{
	"status":        {"job.status", true, printSnapshot},
	"list":          {"job.list", false, printList},
	"result":        {"job.result", true, printIndentedRaw},
	"cancel":        {"job.cancel", true, printSnapshot},
	"daemon-status": {"daemon.status", false, printDaemonStatus},
	"drain": {"daemon.drain", false, func(out io.Writer, _ json.RawMessage) error {
		_, err := fmt.Fprintln(out, "daemon draining")
		return err
	}},
}

// runQuery runs query q as subcommand name: parse its flags and job id,
// dial, call, print.
func runQuery(name string, q query, args []string, out io.Writer) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	socket, jsonOut := common(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var params any
	if q.takesID {
		if fs.NArg() != 1 {
			return errors.New("expected exactly one job id argument")
		}
		params = map[string]string{"id": fs.Arg(0)}
	}
	cl, err := dial(*socket)
	if err != nil {
		return err
	}
	defer cl.Close()
	var raw json.RawMessage
	if err := cl.Call(q.method, params, &raw); err != nil {
		return err
	}
	return show(out, raw, *jsonOut, q.render)
}

// show prints a result: the daemon's bytes verbatim under -json (the
// byte-identity contract), render's rendering otherwise.
func show(out io.Writer, raw json.RawMessage, jsonOut bool, render func(io.Writer, json.RawMessage) error) error {
	if jsonOut {
		_, err := fmt.Fprintf(out, "%s\n", raw)
		return err
	}
	return render(out, raw)
}

// dial connects and verifies the daemon speaks our protocol revision,
// so a version skew fails with a clear message instead of a confusing
// method or shape mismatch later.
func dial(socket string) (*rpc.Client, error) {
	cl, err := rpc.Dial(socket)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w (is agentringd running?)", socket, err)
	}
	st, err := cl.DaemonStatus()
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("daemon handshake: %w", err)
	}
	if st.Protocol != rpc.ProtocolVersion {
		cl.Close()
		return nil, fmt.Errorf("daemon %s speaks protocol %d, this client protocol %d", st.Version, st.Protocol, rpc.ProtocolVersion)
	}
	return cl, nil
}

func cmdSubmit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	socket, jsonOut := common(fs)
	var (
		kind     = fs.String("kind", "run", "job kind: run | sweep | explore")
		alg      = fs.String("alg", "", "algorithm: native | native-n | logspace | relaxed | naive | firstfit | binative")
		n        = fs.Int("n", 0, "ring size (run/explore; sweep default axis)")
		k        = fs.Int("k", 0, "agent count (run/explore; sweep default axis)")
		ns       = fs.String("ns", "", "sweep n axis, comma-separated (e.g. 64,128,256)")
		ks       = fs.String("ks", "", "sweep k axis, comma-separated")
		homes    = fs.String("homes", "", "explicit home nodes, comma-separated (run/explore only)")
		workload = fs.String("workload", "", "placement generator: random | clustered | uniform | periodic")
		degree   = fs.Int("degree", 0, "symmetry degree for the periodic workload")
		seed     = fs.Int64("seed", 1, "base seed")
		sched    = fs.String("scheduler", "", "roundrobin | random | synchronous | adversarial")
		topo     = fs.String("topology", "", "substrate spec (agentring.ParseTopology); empty = unidirectional ring")
		faults   = fs.String("faults", "", "fault plan spec (agentring.ParseFaults)")
		priority = fs.Int("priority", 0, "queue priority (higher runs earlier)")
		traceEv  = fs.Int("trace-events", 0, "stream up to this many live trace events to subscribers")
		specJSON = fs.String("spec", "", "full job spec as JSON (overrides the individual spec flags)")
		wait     = fs.Bool("wait", false, "block until the job finishes and print its result")
		local    = fs.Bool("local", false, "run the spec in-process via jobs.Execute instead of the daemon")
		workers  = fs.Int("workers", 0, "-local worker pool (0 = all cores)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec jobs.Spec
	if *specJSON != "" {
		if err := json.Unmarshal([]byte(*specJSON), &spec); err != nil {
			return fmt.Errorf("-spec: %w", err)
		}
	} else {
		nsList, err := jobs.ParseInts(*ns)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		ksList, err := jobs.ParseInts(*ks)
		if err != nil {
			return fmt.Errorf("-ks: %w", err)
		}
		homesList, err := jobs.ParseInts(*homes)
		if err != nil {
			return fmt.Errorf("-homes: %w", err)
		}
		spec = jobs.Spec{
			Kind:        jobs.Kind(*kind),
			Algorithm:   *alg,
			Topology:    *topo,
			N:           *n,
			K:           *k,
			Homes:       homesList,
			Workload:    *workload,
			Degree:      *degree,
			Seed:        *seed,
			Scheduler:   *sched,
			Faults:      *faults,
			Ns:          nsList,
			Ks:          ksList,
			Priority:    *priority,
			TraceEvents: *traceEv,
		}
	}

	if *local {
		res, err := jobs.Execute(spec, *workers)
		if err != nil {
			return err
		}
		return printJSONValue(out, res, *jsonOut)
	}

	cl, err := dial(*socket)
	if err != nil {
		return err
	}
	defer cl.Close()
	snap, err := cl.Submit(spec)
	if err != nil {
		return err
	}
	if !*wait {
		if *jsonOut {
			return printJSONValue(out, snap, true)
		}
		fmt.Fprintf(out, "submitted %s (%s, %d cell(s))\n", snap.ID, snap.State, snap.Total)
		return nil
	}

	final, err := waitFinal(cl, snap.ID)
	if err != nil {
		return err
	}
	if final.State != jobs.StateDone {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	raw, err := cl.RawResult(final.ID)
	if err != nil {
		return err
	}
	return show(out, raw, *jsonOut, printIndentedRaw)
}

func waitFinal(cl *rpc.Client, id string) (jobs.Snapshot, error) {
	for {
		snap, err := cl.Status(id)
		if err != nil {
			return jobs.Snapshot{}, err
		}
		if snap.State.Final() {
			return snap, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func cmdWatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	socket, jsonOut := common(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	job := "" // empty = the whole event stream
	if fs.NArg() > 0 {
		job = fs.Arg(0)
	}
	cl, err := dial(*socket)
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.Subscribe(job); err != nil {
		return err
	}
	if job != "" {
		// The job may already be finished (or finish between subscribe and
		// the first event); don't wait forever on a stream that will stay
		// silent.
		snap, err := cl.Status(job)
		if err != nil {
			return err
		}
		if snap.State.Final() {
			fmt.Fprintln(out, formatSnapshot(snap))
			return nil
		}
	}
	for n := range cl.Events() {
		var ev jobs.Event
		if err := json.Unmarshal(n.Params, &ev); err != nil {
			return fmt.Errorf("bad event: %w", err)
		}
		if *jsonOut {
			fmt.Fprintf(out, "%s\n", n.Params)
		} else {
			fmt.Fprintln(out, formatEvent(ev))
		}
		if job != "" && ev.Job != nil && ev.Job.ID == job && ev.Job.State.Final() {
			return nil
		}
	}
	return nil
}

func printSnapshot(out io.Writer, raw json.RawMessage) error {
	var s jobs.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	_, err := fmt.Fprintln(out, formatSnapshot(s))
	return err
}

func printList(out io.Writer, raw json.RawMessage) error {
	var snaps []jobs.Snapshot
	if err := json.Unmarshal(raw, &snaps); err != nil {
		return err
	}
	if len(snaps) == 0 {
		fmt.Fprintln(out, "no jobs")
		return nil
	}
	for _, s := range snaps {
		fmt.Fprintln(out, formatSnapshot(s))
	}
	return nil
}

// printIndentedRaw re-indents a JSON result for humans.
func printIndentedRaw(out io.Writer, raw json.RawMessage) error {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return err
	}
	return printIndented(out, v)
}

func printDaemonStatus(out io.Writer, raw json.RawMessage) error {
	var st rpc.DaemonStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	var stats jobs.Stats
	if err := json.Unmarshal(st.Stats, &stats); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s protocol %d pid %d on %s\n", st.Version, st.Protocol, st.PID, st.Socket)
	fmt.Fprintf(out, "jobs: %d queued, %d running, %d done, %d failed, %d cancelled\n",
		stats.Queued, stats.Running, stats.Done, stats.Failed, stats.Cancelled)
	fmt.Fprintf(out, "events: %d subscriber(s), %d dropped", stats.Subscribers, stats.Dropped)
	if stats.Draining {
		fmt.Fprint(out, " [draining]")
	}
	fmt.Fprintln(out)
	return nil
}

func printJSONValue(out io.Writer, v any, compact bool) error {
	if compact {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", b)
		return err
	}
	return printIndented(out, v)
}

func printIndented(out io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func formatSnapshot(s jobs.Snapshot) string {
	line := fmt.Sprintf("%-4s %-7s %-10s %s  %d/%d", s.ID, s.Spec.Kind, s.Spec.Algorithm, s.State, s.Done, s.Total)
	if s.Error != "" {
		line += "  (" + s.Error + ")"
	}
	return line
}

func formatEvent(ev jobs.Event) string {
	switch {
	case ev.Trace != nil:
		t := ev.Trace
		line := fmt.Sprintf("%s trace step=%d agent=%d node=%d %s", ev.JobID, t.Step, t.Agent, t.Node, t.Kind)
		if t.Detail != "" {
			line += " " + t.Detail
		}
		return line
	case ev.Explore != nil:
		p := ev.Explore
		return fmt.Sprintf("%s %s states=%d pruned=%d frontier=%d", ev.JobID, ev.Type, p.States, p.Pruned, p.Frontier)
	case ev.Job != nil:
		return fmt.Sprintf("%s %s %d/%d", ev.Job.ID, ev.Type, ev.Job.Done, ev.Job.Total)
	default:
		return ev.Type
	}
}
