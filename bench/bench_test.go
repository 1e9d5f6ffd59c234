package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"agentring"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// reference loop's child process.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "--reference" {
		printReference()
		return
	}
	os.Exit(m.Run())
}

func TestReferenceChild(t *testing.T) {
	ds, err := referenceChild()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d <= 0 || d > time.Minute {
			t.Errorf("reference pass took %v", d)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 7}, [3]float64{1.8125, 5.25, 8.5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	if got := iqrFrac([]float64{0, 0, 0}); got != 0 {
		t.Errorf("iqrFrac of zeros = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children cover [10, 50] once.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
		{ID: 6, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":       100 - 40 - 10 + 10,
		"child":      20 + 30 - 10,
		"late":       30,
		"grandchild": 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerWritesSpansAndHistograms(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	parent := tr.id()
	tr.add(0, parent, "child", "j1", now, now.Add(time.Millisecond))
	tr.add(parent, 0, "parent", "j1", now, now.Add(2*time.Millisecond))
	for _, v := range []float64{3, 1, 2} {
		tr.observe("call", v)
	}
	var nilTracer *tracer
	nilTracer.add(0, 0, "ignored", "", now, now)
	nilTracer.observe("ignored", 1)

	path := t.TempDir() + "/trace.ndjson"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var lines []map[string]any
	for {
		var m map[string]any
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 spans and 1 histogram: %v", len(lines), lines)
	}
	if lines[1]["name"] != "parent" || lines[0]["parent"] != lines[1]["id"] {
		t.Errorf("child does not point at its parent: %v", lines[:2])
	}
	if h := lines[2]; h["hist"] != "call" || h["count"] != 3.0 || h["total"] != 6.0 || h["p50"] != 2.0 {
		t.Errorf("histogram line = %v", h)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the declared benchmark and the
// program in step: same workloads, same metrics, same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, program %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		defs []metricDef
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.defs) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program %d", len(c.decl), len(c.defs))
		}
		for i, d := range c.defs {
			if c.decl[i].Name != d.name || c.decl[i].Unit != d.unit {
				t.Errorf("metric %d: declared %s [%s], program %s [%s]", i, c.decl[i].Name, c.decl[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestWorkloadsSmoke runs all six workload shapes, shrunk, through the
// same measurement path as the benchmark, untraced and traced.
func TestWorkloadsSmoke(t *testing.T) {
	small := []workload{
		runWorkload("run-native", runParams{alg: agentring.Native, n: 1000, k: 10, sched: agentring.RoundRobin}),
		runWorkload("run-logspace", runParams{alg: agentring.LogSpace, n: 300, k: 8, sched: agentring.RandomSched}),
		exploreWorkload("explore-ckpt", exploreParams{alg: agentring.Native, n: 4, speedup: true,
			want: sweepTotals{states: 307, distinct: 5, placements: 5}}),
		exploreWorkload("explore-replay", exploreParams{alg: agentring.LogSpace, n: 4,
			want: sweepTotals{states: 403, distinct: 6, placements: 5}}),
		exploreWorkload("explore-adversary", exploreParams{alg: agentring.Native, n: 4, adversary: "1/3",
			want: sweepTotals{states: 4858, distinct: 10, placements: 5}}),
		daemonWorkload("daemon", daemonParams{jobsPerRep: 20}),
	}
	e := env{seed: 7, dir: t.TempDir(), probe: 5 * time.Millisecond}
	// A host at half the reference speed; traced runs report its raw time.
	slowHost := func() ([]time.Duration, error) { return []time.Duration{2 * referenceNominal}, nil }
	baseline := runtime.NumGoroutine()
	for _, w := range small {
		for _, trace := range []bool{false, true} {
			res, tr, err := measure(w, e, runConfig{minReps: 2, trace: trace, reference: slowHost}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			// Every daemon, server and client a run started has stopped.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
				if time.Now().After(deadline) {
					t.Fatalf("%s trace=%v: %d goroutines left running, %d before", w.name, trace, runtime.NumGoroutine(), baseline)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if tr == nil {
					t.Errorf("%s: traced run returned no tracer", w.name)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace && res.Metrics["sim.new_engine_us"].Value <= 0 {
				t.Errorf("%s: the sim probes measured nothing", w.name)
			}
			if got := res.Metrics["host.reference_ms"].Value; trace && got != 50 {
				t.Errorf("%s: host.reference_ms = %v, want 50", w.name, got)
			}
		}
	}
}
