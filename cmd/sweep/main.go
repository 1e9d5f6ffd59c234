// Command sweep regenerates the empirical content of the paper's
// Table 1: for each algorithm it sweeps (n, k) grids — and symmetry
// degrees for the relaxed algorithm — and prints measured total moves,
// ideal time (rounds), and peak per-agent memory. Each table is a set
// of job specs run through the same executor as an agentringd job
// (internal/jobs), so the grids run batched across a bounded worker
// pool and a sweep row is exactly a daemon cell.
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
//	sweep -json           # NDJSON: one job cell per line, streamed
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"agentring"
	"agentring/internal/jobs"
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

// A preset is one table of the sweep, named by its -alg value.
type preset struct {
	alg    string
	header string
	biring bool // runs only on -topology biring
	degree bool // the relaxed algorithm's symmetry-degree column
}

// presets are the sweep's tables in print order.
var presets = []preset{
	{alg: "native", header: "== Table 1, column 1: Algorithm 1 (knows k) — O(k log n) memory, O(n) time, O(kn) moves =="},
	{alg: "logspace", header: "== Table 1, column 2: Algorithms 2+3 (knows k) — O(log n) memory, O(n log k) time, O(kn) moves =="},
	{alg: "binative", header: "== Bidirectional variant: Algorithm 1 with shortest-way deployment — same targets, fewer moves ==", biring: true},
	{alg: "relaxed", header: "== Table 1, column 4: relaxed algorithm (no knowledge) — everything scales with 1/l ==", degree: true},
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
	selected := presets
	if *algName != "all" {
		i := slices.IndexFunc(presets, func(p preset) bool { return p.alg == *algName })
		if i < 0 {
			return fmt.Errorf("unknown -alg %q: want native, logspace, relaxed, binative or all", *algName)
		}
		if presets[i].biring && *topoSpec != "biring" {
			return fmt.Errorf("-alg %s requires -topology biring", *algName)
		}
		selected = presets[i : i+1]
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
	n, k := 256, 16 // the degree column's ring
	if *big {
		ns = []int{64, 256, 1024, 4096}
		ks = []int{4, 16, 64, 256}
		n, k = 1024, 32
	}
	// Fixed-size substrates (torus=RxC, tree=...) pin the (n) axis to
	// their own size; the ring families take their sizes from the grid.
	if *topoSpec != "ring" && *topoSpec != "biring" {
		probe, err := agentring.ParseTopology(*topoSpec, 0)
		if err != nil {
			return err
		}
		fit := slices.DeleteFunc(slices.Clone(ks), func(agents int) bool { return agents > probe.Size()/2 })
		if len(fit) == 0 {
			return fmt.Errorf("substrate %s too small for the k grid %v", probe, ks)
		}
		ns, ks = []int{probe.Size()}, fit
		n, k = ns[0], ks[len(ks)-1]
	}
	base := jobs.Spec{
		Topology:  *topoSpec,
		Workload:  "random",
		Seed:      *seed,
		Scheduler: "synchronous",
		Faults:    *faults,
	}

	// In JSON mode each completed cell streams out immediately as one
	// NDJSON line (in grid order), so long sweeps can be watched and
	// piped instead of buffering the whole run into one array.
	var (
		hooks  jobs.Hooks
		encErr error
		failed []string
	)
	if *jsonFlag {
		enc := json.NewEncoder(out)
		hooks.Cell = func(c jobs.CellResult) {
			if encErr == nil {
				encErr = enc.Encode(c)
			}
		}
	}
	for _, p := range selected {
		if p.biring && *topoSpec != "biring" {
			continue
		}
		var rows []row
		for _, spec := range p.specs(base, ns, ks, n, k) {
			plan, err := jobs.Compile(spec)
			if err != nil {
				return err
			}
			res, err := jobs.Run(ctx, plan, *workers, hooks)
			if err != nil {
				return err
			}
			for _, c := range res.Cells {
				rows = append(rows, row{spec, c})
			}
		}
		failed = append(failed, nonUniform(rows)...)
		if *jsonFlag {
			continue // rows already streamed
		}
		fmt.Fprintln(out, p.header)
		fmt.Fprint(out, formatRows(rows))
		if *chart && p.degree {
			fmt.Fprint(out, movesChart("total moves vs symmetry degree (the 1/l adaptivity):", rows))
		}
		fmt.Fprintln(out)
	}
	if encErr != nil {
		return encErr
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

// specs are the job specs that fill a preset's table: one sweep over
// the (n, k) grid for a Table 1 column, with the paper's synchronous
// scheduler so rounds are ideal time, or for the degree column one run
// per symmetry degree l | k that the n-node substrate admits.
func (p preset) specs(base jobs.Spec, ns, ks []int, n, k int) []jobs.Spec {
	base.Algorithm = p.alg
	if !p.degree {
		base.Kind, base.Ns, base.Ks = jobs.KindSweep, ns, ks
		return []jobs.Spec{base}
	}
	var specs []jobs.Spec
	for _, l := range divisorsUpTo(k) {
		if n%l == 0 {
			s := base
			s.Kind, s.N, s.K, s.Workload, s.Degree = jobs.KindRun, n, k, "periodic", l
			specs = append(specs, s)
		}
	}
	return specs
}

// row is one table line: a finished cell and the spec that produced it.
type row struct {
	spec jobs.Spec
	jobs.CellResult
}

// nonUniform describes every row that failed uniform deployment.
func nonUniform(rows []row) []string {
	var out []string
	for _, r := range rows {
		if !r.Uniform {
			line := fmt.Sprintf("%s n=%d k=%d %s", r.Algorithm, r.N, r.K, r.spec.Workload)
			if r.Error != "" {
				line += ": " + r.Error
			}
			out = append(out, line)
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
