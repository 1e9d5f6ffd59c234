// Command lowerbound runs the Theorem 1 / Fig 3 experiment: all agents
// start clustered in a contiguous arc, which forces Ω(kn) total moves.
// It prints measured total moves against the kn/16 floor of the
// theorem's proof for every algorithm.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"agentring/internal/jobs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	var (
		n = fs.Int("n", 256, "ring size")
		k = fs.Int("k", 32, "agents (must be <= n/4 for the quarter-arc argument)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k > *n/4 {
		return fmt.Errorf("k=%d exceeds n/4=%d; the Fig 3 argument needs a quarter arc", *k, *n/4)
	}
	floor := *k * *n / 16
	fmt.Fprintf(out, "Theorem 1 (Fig 3): clustered quarter-arc on n=%d, k=%d — floor kn/16 = %d\n\n", *n, *k, floor)
	fmt.Fprintf(out, "%-12s %12s %12s %8s\n", "algorithm", "moves", "floor", "ratio")
	for _, alg := range []string{"native", "logspace", "relaxed"} {
		res, err := jobs.Execute(jobs.Spec{
			Kind:      jobs.KindRun,
			Algorithm: alg,
			N:         *n,
			K:         *k,
			Workload:  "clustered",
			Scheduler: "synchronous",
		}, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		c := res.Cells[0]
		if !c.Uniform {
			return fmt.Errorf("%s: lower-bound run not uniform", c.Algorithm)
		}
		fmt.Fprintf(out, "%-12s %12d %12d %8.2f\n", c.Algorithm, c.Moves, floor, float64(c.Moves)/float64(floor))
	}
	return nil
}
