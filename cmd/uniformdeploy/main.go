// Command uniformdeploy runs one uniform-deployment algorithm on one
// configuration and prints the outcome. The substrate defaults to the
// paper's unidirectional ring; -topology selects a bidirectional ring,
// a twisted torus, or a tree (deployed on its Euler-tour virtual ring).
//
// Usage:
//
//	uniformdeploy -n 48 -k 8 -alg relaxed -workload periodic -degree 4
//	uniformdeploy -n 16 -homes 0,1,5,11 -alg native -sched sync
//	uniformdeploy -n 24 -k 6 -topology biring -alg binative
//	uniformdeploy -topology torus=4x8 -k 8 -alg native
//	uniformdeploy -topology tree=0-1,1-2,1-3,3-4 -k 3 -alg logspace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"agentring"
	"agentring/internal/jobs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "uniformdeploy:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("uniformdeploy", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 16, "ring size (ignored for torus/tree topologies, which fix their own size)")
		k        = fs.Int("k", 4, "number of agents (ignored when -homes is given)")
		topoSpec = fs.String("topology", "ring", "substrate: ring | biring | torus=RxC | tree=<edge list, e.g. 0-1,1-2>")
		algName  = fs.String("alg", "native", "algorithm: native | native-n | logspace | relaxed | naive | firstfit | binative")
		workload = fs.String("workload", "random", "initial configuration: random | clustered | uniform | periodic")
		degree   = fs.Int("degree", 1, "symmetry degree for -workload periodic")
		seed     = fs.Int64("seed", 1, "workload / scheduler seed")
		sched    = fs.String("sched", "roundrobin", "scheduler: roundrobin | random | sync | adversarial")
		homesCSV = fs.String("homes", "", "explicit comma-separated home nodes (overrides -workload)")
		trace    = fs.Int("trace", 0, "record up to this many trace events")
		verbose  = fs.Bool("v", false, "print per-agent outcomes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	homes, err := jobs.ParseInts(*homesCSV)
	if err != nil {
		return err
	}
	plan, err := jobs.Compile(jobs.Spec{
		Kind:      jobs.KindRun,
		Algorithm: *algName,
		Topology:  *topoSpec,
		N:         *n,
		K:         *k,
		Homes:     homes,
		Workload:  *workload,
		Degree:    *degree,
		Seed:      *seed,
		Scheduler: *sched,
	})
	if err != nil {
		return err
	}
	// The per-agent table, the tree coverage line and the trace need the
	// full report, which a job cell does not carry: run the one compiled
	// cell directly.
	job := plan.Cells[0]
	job.Config.TraceCapacity = *trace
	rep, err := agentring.Run(job.Algorithm, job.Config)
	if err != nil {
		return err
	}
	topo := job.Config.Topology
	fmt.Fprintln(out, rep.Summary())
	if topo.Kind() == agentring.KindTree {
		// Project virtual-ring positions back onto the tree and report
		// the coverage quality the deployment achieved there.
		if treePos, perr := topo.TreeNodes(rep.Positions); perr == nil {
			if worst, mean, cerr := topo.Tree().Coverage(dedupInts(treePos)); cerr == nil {
				fmt.Fprintf(out, "tree positions %v: worst coverage %d, mean %.2f\n", treePos, worst, mean)
			}
		}
	}
	if *verbose {
		fmt.Fprintf(out, "\n%-6s %-6s %-6s %-7s %-9s %s\n", "agent", "home", "node", "moves", "memwords", "state")
		for i, a := range rep.Agents {
			state := "suspended"
			if a.Halted {
				state = "halted"
			}
			fmt.Fprintf(out, "%-6d %-6d %-6d %-7d %-9d %s\n", i, a.Home, a.Node, a.Moves, a.PeakWords, state)
		}
	}
	if rep.Trace != "" {
		fmt.Fprintln(out, "\ntrace:")
		fmt.Fprint(out, rep.Trace)
	}
	if !rep.Uniform {
		return fmt.Errorf("deployment not uniform: %s", rep.Why)
	}
	return nil
}

func dedupInts(v []int) []int {
	seen := make(map[int]bool, len(v))
	out := make([]int, 0, len(v))
	for _, x := range v {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
