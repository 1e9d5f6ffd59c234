// Command sweep regenerates the empirical content of the paper's
// Table 1: for each algorithm it sweeps (n, k) grids — and symmetry
// degrees for the relaxed algorithm — and prints measured total moves,
// ideal time (rounds), and peak per-agent memory. Runs execute batched
// across a bounded worker pool (agentring.RunBatch), so large grids
// scale with the machine.
//
// The substrate defaults to the paper's unidirectional ring; -topology
// runs the same grids on a bidirectional ring (which also unlocks the
// binative column), or pins the sweep to a fixed-size twisted torus or
// Euler-embedded tree (the (n) axis then collapses to that size, with
// ring algorithms deploying along the substrate's port-0 Hamiltonian
// cycle).
//
// Usage:
//
//	sweep                 # all algorithms, default grid
//	sweep -alg relaxed    # only the relaxed-algorithm degree sweep
//	sweep -big -workers 4 # larger grid on a 4-worker pool
//	sweep -json           # NDJSON: one row per completed cell, streamed
//	sweep -topology biring -alg binative   # bidirectional shortcut grid
//	sweep -topology torus=8x8              # all algorithms on one torus
//	sweep -faults transient                # DynRing: links fail and recover
//
// -faults attaches a dynamic-topology fault plan to every run: a named
// DynRing plan (transient | churn | permanent) scaled to each grid
// size, or a raw schedule ("10:3:down,40:3:up"). The eventually
// repaired plans must leave every row uniform; the permanent plan
// documents failure (and exits non-zero like any non-uniform row).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"agentring"
	"agentring/internal/experiments"
)

func main() {
	// Interrupts cancel the context; the batch stops between cells.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		algName  = fs.String("alg", "all", "algorithm: native | logspace | relaxed | binative | all")
		topoSpec = fs.String("topology", "ring", "substrate: ring | biring | torus=RxC | tree=<edge list>")
		faults   = fs.String("faults", "", "fault plan: transient | churn | permanent | raw spec (STEP:FROM[/PORT]:down|up,...)")
		seed     = fs.Int64("seed", 1, "base seed")
		big      = fs.Bool("big", false, "use the larger grid (slower)")
		chart    = fs.Bool("chart", false, "append ASCII bar charts of total moves (table output only)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		jsonFlag = fs.Bool("json", false, "stream rows as NDJSON, one line per completed cell, instead of tables")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *algName {
	case "native", "logspace", "relaxed", "binative", "all":
	default:
		return fmt.Errorf("unknown -alg %q: want native, logspace, relaxed, binative or all", *algName)
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
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not construction garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
			}
		}()
	}

	ns := []int{64, 128, 256}
	ks := []int{4, 8, 16, 32}
	if *big {
		ns = []int{64, 256, 1024, 4096}
		ks = []int{4, 16, 64, 256}
	}
	if *algName == "binative" && *topoSpec != "biring" {
		return fmt.Errorf("-alg binative requires -topology biring")
	}
	// Fixed-size substrates (torus=RxC, tree=...) pin the (n) axis to
	// their own size; the ring families take their sizes from the grid.
	if *topoSpec != "ring" && *topoSpec != "biring" {
		probe, err := agentring.ParseTopology(*topoSpec, 0)
		if err != nil {
			return err
		}
		ns = []int{probe.Size()}
		var fit []int
		for _, k := range ks {
			if k <= probe.Size()/2 {
				fit = append(fit, k)
			}
		}
		if len(fit) == 0 {
			return fmt.Errorf("substrate %s too small for the k grid %v", probe, ks)
		}
		ks = fit
	}
	withTopology := func(specs []experiments.Spec) []experiments.Spec {
		for i := range specs {
			if *topoSpec != "ring" {
				specs[i].Topology = *topoSpec
			}
			specs[i].Faults = *faults
		}
		return specs
	}

	// In JSON mode each completed cell streams out immediately as one
	// NDJSON line (in grid order), so long sweeps can be watched and
	// piped instead of buffering the whole run into one array.
	var jsonErr error
	runSpecs := func(specs []experiments.Spec) ([]experiments.Row, error) {
		if !*jsonFlag {
			return experiments.RunAll(ctx, specs, *workers)
		}
		return experiments.RunAllStream(ctx, specs, *workers, func(r experiments.Row) {
			if jsonErr == nil {
				jsonErr = experiments.WriteJSONRow(out, r)
			}
		})
	}

	var failed []string
	emit := func(header string, rows []experiments.Row, chartTitle string) {
		failed = append(failed, nonUniform(rows)...)
		if *jsonFlag {
			return // rows already streamed by runSpecs
		}
		fmt.Fprintln(out, header)
		fmt.Fprint(out, experiments.FormatRows(rows))
		if *chart && chartTitle != "" {
			fmt.Fprint(out, experiments.MovesChart(chartTitle, rows))
		}
		fmt.Fprintln(out)
	}

	if *algName == "native" || *algName == "all" {
		rows, err := runSpecs(withTopology(experiments.Table1Specs(agentring.Native, ns, ks, *seed)))
		if err != nil {
			return err
		}
		emit("== Table 1, column 1: Algorithm 1 (knows k) — O(k log n) memory, O(n) time, O(kn) moves ==", rows, "")
	}
	if *algName == "logspace" || *algName == "all" {
		rows, err := runSpecs(withTopology(experiments.Table1Specs(agentring.LogSpace, ns, ks, *seed)))
		if err != nil {
			return err
		}
		emit("== Table 1, column 2: Algorithms 2+3 (knows k) — O(log n) memory, O(n log k) time, O(kn) moves ==", rows, "")
	}
	if *topoSpec == "biring" && (*algName == "binative" || *algName == "all") {
		rows, err := runSpecs(withTopology(experiments.Table1Specs(agentring.BiNative, ns, ks, *seed)))
		if err != nil {
			return err
		}
		emit("== Bidirectional variant: Algorithm 1 with shortest-way deployment — same targets, fewer moves ==", rows, "")
	}
	if *algName == "relaxed" || *algName == "all" {
		n, k := 256, 16
		if *big {
			n, k = 1024, 32
		}
		if len(ns) == 1 { // fixed-size substrate
			n = ns[0]
			k = ks[len(ks)-1]
		}
		degrees := divisorsUpTo(k)
		specs := experiments.DegreeSpecs(n, k, degrees, *seed)
		if *topoSpec != "ring" {
			// Periodic placements need l | n; fixed-size substrates may
			// not admit every divisor of k, so keep only those that fit.
			var kept []experiments.Spec
			for _, s := range specs {
				if n%s.Degree == 0 {
					kept = append(kept, s)
				}
			}
			specs = kept
		}
		specs = withTopology(specs)
		rows, err := runSpecs(specs)
		if err != nil {
			return err
		}
		emit("== Table 1, column 4: relaxed algorithm (no knowledge) — everything scales with 1/l ==", rows,
			"total moves vs symmetry degree (the 1/l adaptivity):")
	}
	if jsonErr != nil {
		return jsonErr
	}
	// A non-uniform row means a configuration failed deployment: exit
	// non-zero (after emitting every row) so CI scripting can gate on
	// the sweep without parsing its output.
	if len(failed) > 0 {
		return fmt.Errorf("%d configuration(s) failed uniform deployment: %s",
			len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// nonUniform describes every row that failed uniform deployment.
func nonUniform(rows []experiments.Row) []string {
	var out []string
	for _, r := range rows {
		if !r.Uniform {
			out = append(out, fmt.Sprintf("%s n=%d k=%d %s", r.Algorithm, r.N, r.K, r.Workload))
		}
	}
	return out
}

func divisorsUpTo(k int) []int {
	var out []int
	for d := 1; d <= k; d++ {
		if k%d == 0 {
			out = append(out, d)
		}
	}
	return out
}
