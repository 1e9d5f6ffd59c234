// Command bench is the repository benchmark. It measures the three ways
// the paper's claims reach a user — one simulation run (agentring.Run),
// one exhaustive model-checking sweep (experiments.ExploreAll) and one
// daemon job (jobs + rpc over a Unix socket) — end to end, and, in a
// separate traced run, layer by layer.
//
// One process runs one workload:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every repetition sets its workload up afresh from the seed (timed as
// set-up), runs its operations and checks every output. The first
// repetition is an untimed warm-up; repetitions continue until --seconds
// have passed and at least three are timed. The last line of standard
// output is one JSON object holding the verdict and, with --trace 0, the
// end-to-end metrics or, with --trace 1, the per-layer metrics. A failed
// output check makes the process exit with status 1. See README.md for
// the workloads, the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"agentring"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off for every workload. An operation is what a user waits for:
// one Run (run-*), one full sweep (explore-*) or one daemon job; a unit
// of work is an engine step, an explored state or a job respectively.
// Times are scaled to the reference host, see host.go.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median set-up time
	{"op_p50_ms", "ms"},   // median operation latency
	{"ns_per_unit", "ns"}, // median over repetitions of wall time ÷ units of work
	{"peak_rss_mb", "MB"}, // the process's peak resident set
}

// perLayer are the traced run's metrics, named after the module they
// measure. A metric of a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"agentring.report_ms", "ms"},
	{"agentring.explore_fixed_us", "us"},
	{"sim.new_engine_us", "us"},
	{"sim.run_ns_per_step", "ns"},
	{"sim.decision_point_ns", "ns"},
	{"sim.apply_choice_ns", "ns"},
	{"sim.state_key_ns", "ns"},
	{"sim.checkpoint_to_ns", "ns"},
	{"sim.restore_ns", "ns"},
	{"sim.snapshot_key_ns", "ns"},
	{"sim.replay_ns_per_step", "ns"},
	{"explore.states", "count"},
	{"explore.expansions", "count"},
	{"explore.applied_steps", "count"},
	{"explore.pruned", "count"},
	{"explore.sleep_skips", "count"},
	{"explore.expansions_per_state", "ratio"},
	{"explore.cache_hit_ratio", "ratio"},
	{"explore.sim_ns_per_state", "ns"},
	{"explore.self_ns_per_state", "ns"},
	{"explore.allocs_per_state", "count"},
	{"explore.alloc_bytes_per_state", "B"},
	{"explore.speedup_w2", "ratio"},
	{"experiments.placements", "count"},
	{"experiments.self_ms", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p99", "ms"},
	{"jobs.exec_ms_p50", "ms"},
	{"jobs.execute_direct_ms_p50", "ms"},
	{"jobs.job_p99_ms", "ms"},
	{"jobs.job_samples", "count"},
	{"jobs.events_per_job", "count"},
	{"jobs.events_dropped", "count"},
	{"jobs.events_missed", "count"},
	{"rpc.status_rtt_us_p50", "us"},
	{"rpc.status_rtt_us_p99", "us"},
	{"rpc.submit_rtt_us_p50", "us"},
	{"rpc.result_rtt_us_p50", "us"},
	{"rpc.result_bytes_p50", "B"},
	{"go.gc_cpu_frac", "ratio"},
	{"host.reference_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	// dir is a scratch directory inside the checkout (daemon sockets).
	dir string
	// probe is the time budget of each per-layer probe in traced runs.
	probe time.Duration
}

// workload is one benchmark input family; setup builds a fresh instance
// of it from the seed.
type workload struct {
	name  string
	setup func(env) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// rep performs one repetition's operations, checking every output.
	// tr is nil in untraced repetitions.
	rep(tr *tracer) repStats
	// layers fills the per-layer metrics of a traced run from its timed
	// repetitions and from probes run against this instance.
	layers(tr *tracer, reps []repStats, m map[string]float64) error
	close()
}

// repStats is one repetition's measurement.
type repStats struct {
	wall      time.Duration   // the operations, excluding set-up
	units     int64           // checked units of work
	ops       []time.Duration // per-operation latencies
	attempted int
	failed    int
	traced    bool
	problems  []string // why operations failed
	detail    any      // workload-specific data for layers
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig controls one measurement.
type runConfig struct {
	seconds time.Duration
	minReps int
	trace   bool
	// reference times passes of the host-speed reference loop (host.go).
	reference func() ([]time.Duration, error)
}

func workloads() []workload {
	return []workload{
		runWorkload("run-native", runParams{alg: agentring.Native, n: 100_000, k: 100, sched: agentring.RoundRobin}),
		runWorkload("run-logspace", runParams{alg: agentring.LogSpace, n: 30_000, k: 32, sched: agentring.RandomSched}),
		exploreWorkload("explore-ckpt", exploreParams{alg: agentring.Native, n: 8, speedup: true,
			want: sweepTotals{states: 177_686, distinct: 35, placements: 35}}),
		exploreWorkload("explore-replay", exploreParams{alg: agentring.LogSpace, n: 6,
			want: sweepTotals{states: 13_983, distinct: 49, placements: 13}}),
		// The 7-ring, not the 6-ring: its search caches, a million states
		// across the sweep, dominate peak_rss_mb (63 MB against the 14.5 MB
		// the small workloads reach), where the 6-ring's add 6 MB.
		exploreWorkload("explore-adversary", exploreParams{alg: agentring.Native, n: 7, adversary: "1/3",
			want: sweepTotals{states: 1_014_718, distinct: 38, placements: 19}}),
		daemonWorkload("daemon", daemonParams{jobsPerRep: 1000}),
	}
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := flag.String("trace-out", "", "span NDJSON file of a traced run (default .bench_build/traces/<workload>-seed<seed>.ndjson)")
	reference := flag.Bool("reference", false, "run the host-speed reference loop, print each pass's nanoseconds and exit")
	flag.Parse()
	if *reference {
		printReference()
		return
	}

	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *secs < 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of")
		for _, c := range workloads() {
			fmt.Fprintf(os.Stderr, " %s", c.name)
		}
		fmt.Fprintln(os.Stderr, "), --seconds >= 0 and --trace 0|1")
		os.Exit(2)
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	rc := runConfig{seconds: time.Duration(*secs) * time.Second, minReps: 3, trace: *trace == 1, reference: referenceChild}
	res, tr, err := measure(*w, env{seed: *seed, dir: dir, probe: time.Second}, rc, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if tr != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.ndjson", w.name, *seed))
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spans and histograms written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs repetitions until rc.seconds have passed and rc.minReps
// are timed, setting the workload up afresh for each, then reports the
// end-to-end metrics or, in a traced run, the per-layer ones. A
// human-readable summary goes to log. The tracer is returned for writing
// in traced runs.
func measure(w workload, e env, rc runConfig, log io.Writer) (result, *tracer, error) {
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var (
		inst      instance
		setups    []float64
		refs      []float64 // reference loop passes, ms
		reps      []repStats
		attempted int
		failed    int
	)
	gc0 := gcCPU()
	start := time.Now()
	for i := 0; ; i++ {
		// The last repetition's instance stays open for the probes.
		if inst != nil {
			inst.close()
		}
		// Collect the previous repetition's garbage first, so neither the
		// set-up nor the operations pay for it.
		runtime.GC()
		ds, err := rc.reference()
		if err != nil {
			return result{}, nil, err
		}
		for _, d := range ds {
			refs = append(refs, float64(d)/1e6)
		}
		t0 := time.Now()
		next, err := w.setup(e)
		if err != nil {
			return result{}, nil, fmt.Errorf("set up: %w", err)
		}
		inst = next
		setups = append(setups, time.Since(t0).Seconds())
		// Timed repetitions alternate untraced and traced, so a traced
		// run measures its own tracing overhead.
		traced := rc.trace && len(reps)%2 == 1
		rtr := tr
		if !traced {
			rtr = nil
		}
		r := inst.rep(rtr)
		r.traced = traced
		attempted += r.attempted
		failed += r.failed
		for j, p := range r.problems {
			if j == 3 {
				fmt.Fprintf(log, "  ... %d more\n", len(r.problems)-j)
				break
			}
			fmt.Fprintf(log, "%s: check failed: %s\n", w.name, p)
		}
		if i > 0 {
			reps = append(reps, r)
		}
		if len(reps) >= rc.minReps && time.Since(start) >= rc.seconds {
			break
		}
	}
	defer inst.close()
	gc := gcCPU().sub(gc0)

	walls := make([]float64, len(reps))
	var ops []float64
	for i, r := range reps {
		walls[i] = r.wall.Seconds()
		for _, d := range r.ops {
			ops = append(ops, float64(d)/1e6)
		}
	}
	// End-to-end times are scaled to the reference host (host.go); the
	// layers report raw times.
	scale := float64(referenceNominal) / 1e6 / median(refs)
	// A metric no code path sets reads 0: a layer the workload does not
	// exercise.
	values := make(map[string]float64)
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		if err := inst.layers(tr, reps, values); err != nil {
			return result{}, nil, fmt.Errorf("per-layer probes: %w", err)
		}
		values["go.gc_cpu_frac"] = gc.frac()
		values["host.reference_ms"] = median(refs)
		var on, off []float64
		for _, r := range reps {
			if r.traced {
				on = append(on, r.wall.Seconds())
			} else {
				off = append(off, r.wall.Seconds())
			}
		}
		if len(on) > 0 && len(off) > 0 {
			values["trace.overhead_frac"] = median(on)/median(off) - 1
		}
	} else {
		values["setup_s"] = median(setups) * scale
		values["op_p50_ms"] = median(ops) * scale
		values["ns_per_unit"] = median(nsPerUnit(reps)) * scale
		values["peak_rss_mb"] = peakRSSMB()
	}

	fmt.Fprintf(log, "%s seed %d: %d timed repetitions, %d operations attempted, %d failed; raw times below, end-to-end metrics scaled by %.4f\n",
		w.name, e.seed, len(reps), attempted, failed, scale)
	for _, s := range []struct {
		name, unit string
		xs         []float64
	}{{"ref", "ms", refs}, {"set-up", "s", setups}, {"wall", "s", walls}, {"op", "ms", ops}} {
		q1, q2, q3 := quartiles(s.xs)
		fmt.Fprintf(log, "  %-6s quartiles %.6g %.6g %.6g %s (IQR %.1f%% of median), min %.6g, max %.6g, n=%d\n",
			s.name, q1, q2, q3, s.unit, 100*iqrFrac(s.xs), slices.Min(s.xs), slices.Max(s.xs), len(s.xs))
	}
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(log, "  %-32s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	return res, tr, nil
}

// nsPerUnit returns each repetition's wall time per checked unit of
// work, skipping repetitions that checked none.
func nsPerUnit(reps []repStats) []float64 {
	var out []float64
	for _, r := range reps {
		if r.units > 0 {
			out = append(out, float64(r.wall.Nanoseconds())/float64(r.units))
		}
	}
	return out
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes are the runtime's cumulative CPU-time estimates.
type cpuTimes struct{ gc, total float64 }

func gcCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.gc - o.gc, c.total - o.total} }

func (c cpuTimes) frac() float64 {
	if c.total <= 0 {
		return 0
	}
	return c.gc / c.total
}
