// Command explore model-checks an algorithm over the asynchronous
// schedule space of a small ring: it enumerates every interleaving of
// atomic actions (up to commuting reorderings and converged states)
// and reports either full coverage or the first schedule that defeats
// uniform deployment. This turns the paper's universally quantified
// claims into mechanically checked facts on small instances — and
// exhibits the Theorem 5 impossibility as a concrete failing schedule
// for the naive estimate-then-halt strategy.
//
// Usage:
//
//	explore -n 6 -k 3                       # clustered homes, native algorithm
//	explore -n 8 -homes 0,1,2,3,4 -alg naive # Theorem 5 counterexample
//	explore -n 5 -all -alg logspace          # every placement of the 5-ring
//	explore -n 6 -k 2 -json                  # machine-readable report (one compact line)
//	explore -n 5 -all -json -alg logspace    # NDJSON: one line per placement, streamed
//	explore -n 4 -k 2 -faults 1:2:down,9:2:up # dynamic ring: link fails, recovers
//	explore -n 4 -k 2 -faults permanent       # never repaired: finds the frozen-agent schedule
//	explore -n 4 -k 2 -adversary 1/3          # online adversary: branch over every 1-link outage
//	explore -n 8 -homes 0,1,2,3,4 -alg naive -adversary 1/3 # minimal breaking budget (WorstOutage)
//	explore -n 8 -all -workers 4              # exhaustive n=8 on the work-stealing pool
//	explore -n 8 -k 5 -duration 10s           # wall-clock budget: honest partial report
//
// -workers sizes the search's work-stealing worker pool; every worker
// count covers the same states and reports the same counterexample.
// -duration bounds wall-clock time: on expiry the report says
// complete=false rather than erroring. Ctrl-C aborts the search and
// still prints the partial report. Under -json, running searches also
// stream progress rows ({"type":"progress",...}) interleaved with the
// report lines, one compact JSON object per line; report lines carry
// no "type" field, so consumers filter on its presence.
//
// -faults attaches a link failure/repair timeline (a named DynRing plan
// — transient | churn | permanent — or a raw
// "STEP:FROM[/PORT]:down|up,..." schedule) to every exploration: the
// checker then enumerates all agent interleavings around that timeline.
//
// -adversary K/D[/T] replaces the fixed timeline with an online fault
// adversary: failing and repairing links become choices of the schedule
// itself, bounded by the budget (at most K links down at once, each
// repaired within D atomic actions, at most T fails per schedule), so a
// clean complete search proves the algorithm tolerates *every* outage
// pattern within the budget. When a counterexample exists the report
// includes the minimal concurrent-outage budget that already breaks the
// algorithm (worst outage). Mutually exclusive with -faults; composes
// with -all and -json.
//
// -cpuprofile/-memprofile write pprof profiles of the search (same
// flags as sweep), keeping the checkpoint-mode hot path profileable.
//
// The process exits non-zero when any exploration finds a
// counterexample, so CI scripting can rely on the exit code.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"agentring"
	"agentring/internal/experiments"
	"agentring/internal/jobs"
)

func main() {
	// Interrupts cancel the context, which reaches mid-search: every
	// worker polls it at each frontier pop, so a ^C stops a long
	// exploration after at most one expansion per worker.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 6, "ring size (ignored for torus/tree topologies)")
		k        = fs.Int("k", 2, "agent count (clustered from node 0 unless -homes is given)")
		algName  = fs.String("alg", "native", "algorithm: native | native-n | logspace | relaxed | naive | firstfit | binative")
		topoSpec = fs.String("topology", "ring", "substrate: ring | biring | torus=RxC | tree=<edge list>")
		homesCSV = fs.String("homes", "", "comma-separated home nodes (overrides -k)")
		faultStr = fs.String("faults", "", "fault plan: transient | churn | permanent | raw spec (STEP:FROM[/PORT]:down|up,...)")
		advStr   = fs.String("adversary", "", "online fault adversary budget K/D[/T]: at most K links down at once, each repaired within D actions, at most T fails total (default K); exclusive with -faults")
		all      = fs.Bool("all", false, "explore every initial configuration of the substrate (up to rotation on ring families; ignores -k and -homes)")
		depth    = fs.Int("depth", 0, "schedule depth bound (0 = default)")
		states   = fs.Int("states", 0, "distinct-state bound (0 = default)")
		workers  = fs.Int("workers", 0, "work-stealing search workers (<=1 = sequential; any value covers the same space)")
		moves    = fs.Int("moves", 0, "total-move bound; exceeding it is a counterexample (0 = off)")
		duration = fs.Duration("duration", 0, "wall-clock budget per exploration; expiring truncates the search (0 = off)")
		jsonFlag = fs.Bool("json", false, "emit the report(s) as JSON (NDJSON stream with -all; includes progress rows)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the search to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (taken after the search) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "explore: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not construction garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "explore: memprofile:", err)
			}
		}()
	}
	spec := jobs.Spec{
		Kind:          jobs.KindExplore,
		Algorithm:     *algName,
		Topology:      *topoSpec,
		N:             *n,
		K:             1, // -all supplies its own placements
		Workload:      "clustered",
		Faults:        *faultStr,
		Adversary:     *advStr,
		MaxDepth:      *depth,
		MaxStates:     *states,
		MaxTotalMoves: *moves,
		MaxDurationMS: int((*duration + time.Millisecond - 1) / time.Millisecond), // rounded up: a positive budget stays on
		Workers:       *workers,
	}
	if !*all {
		homes, err := jobs.ParseInts(*homesCSV)
		if err != nil {
			return err
		}
		spec.K, spec.Homes = *k, homes
	}
	plan, err := jobs.Compile(spec)
	if err != nil {
		return err
	}

	// In -json mode, searches stream NDJSON progress rows (type
	// "progress") interleaved with the report rows; the shared encoder
	// mutex keeps concurrent emissions line-atomic. Report rows keep
	// their pre-progress shapes (no "type" field), so existing consumers
	// can filter on the field's presence.
	var (
		encMu    sync.Mutex
		enc      = json.NewEncoder(out)
		progress func(agentring.ExploreProgress)
	)
	if *jsonFlag {
		progress = func(p agentring.ExploreProgress) {
			encMu.Lock()
			defer encMu.Unlock()
			enc.Encode(progressJSON{
				Type:      "progress",
				States:    p.States,
				Frontier:  p.Frontier,
				CacheHits: p.CacheHits,
				Replays:   p.Replays,
				ElapsedMS: p.Elapsed.Milliseconds(),
			})
		}
	}

	if *all {
		opts := plan.Options
		opts.Progress = progress
		var (
			emit   func(experiments.ExploreRow)
			encErr error
		)
		if *jsonFlag {
			// Stream one NDJSON line per explored placement, so long
			// enumerations report progress as they go instead of buffering
			// everything into one array.
			emit = func(r experiments.ExploreRow) {
				encMu.Lock()
				defer encMu.Unlock()
				if encErr == nil {
					encErr = enc.Encode(exploreJSONRow(r))
				}
			}
		}
		rows, exploreErr := experiments.ExploreAllStream(ctx, plan.Algorithm, *topoSpec, *n, plan.Explore.Faults, opts, emit)
		if !*jsonFlag {
			fmt.Fprint(out, experiments.FormatExploreRows(rows))
		}
		if encErr != nil {
			return encErr
		}
		return exploreErr
	}

	res, err := jobs.Run(ctx, plan, 0, jobs.Hooks{Explore: progress})
	if err != nil {
		return err
	}
	rep := *res.Explore
	if *jsonFlag {
		// One compact line, the single-report degenerate case of the
		// -all NDJSON stream.
		encMu.Lock()
		err := enc.Encode(rep)
		encMu.Unlock()
		if err != nil {
			return err
		}
	} else {
		printReport(out, plan.Explore.Homes, rep)
	}
	if rep.Counterexample != nil {
		return fmt.Errorf("counterexample found: %s", rep.Counterexample.Reason)
	}
	return nil
}

func printReport(out io.Writer, homes []int, rep agentring.ExploreReport) {
	cover := "full schedule space covered"
	switch {
	case rep.Counterexample != nil:
		cover = "stopped at first counterexample"
	case !rep.Complete:
		cover = fmt.Sprintf("bounded search (%d branches truncated)", rep.Truncated)
	}
	where := rep.Topology
	if rep.Faults != "" {
		where += " faults=" + rep.Faults
	}
	if rep.Adversary != "" {
		where += " adversary=" + rep.Adversary
	}
	fmt.Fprintf(out, "%s on %s homes=%v: %s\n", rep.Algorithm, where, homes, cover)
	fmt.Fprintf(out, "  %d states (%d pruned, %d sleep-set skips), %d replays totalling %d steps\n",
		rep.States, rep.Pruned, rep.SleepSkips, rep.Replays, rep.StepsReplayed)
	fmt.Fprintf(out, "  %d distinct terminal configuration(s), deepest schedule %d decisions\n",
		rep.DistinctTerminals, rep.Deepest)
	if rep.Counterexample != nil {
		fmt.Fprint(out, rep.Counterexample.Trace)
	} else {
		fmt.Fprintln(out, "  no counterexample: every explored schedule deploys uniformly")
	}
	if wo := rep.WorstOutage; wo != nil {
		if wo.Breaks {
			fmt.Fprintf(out, "  worst outage: breaks at concurrent budget %d (repair within %d, %d fails total)\n",
				wo.MinConcurrent, wo.RepairWithin, wo.MaxTotal)
		} else {
			fmt.Fprintf(out, "  worst outage: tolerates the full %s budget\n", rep.Adversary)
		}
	}
}

// progressJSON is one live-progress NDJSON line, distinguished from
// report rows by its "type" field.
type progressJSON struct {
	Type      string `json:"type"`
	States    int64  `json:"states"`
	Frontier  int64  `json:"frontier"`
	CacheHits int64  `json:"cache_hits"`
	Replays   int64  `json:"replays"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// exploreRowJSON is one -all NDJSON line, with stable field names.
type exploreRowJSON struct {
	Algorithm string                  `json:"algorithm"`
	N         int                     `json:"n"`
	Homes     []int                   `json:"homes"`
	Report    agentring.ExploreReport `json:"report"`
}

func exploreJSONRow(r experiments.ExploreRow) exploreRowJSON {
	return exploreRowJSON{Algorithm: r.Algorithm.String(), N: r.N, Homes: r.Homes, Report: r.Report}
}
