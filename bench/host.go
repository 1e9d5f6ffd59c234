package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The benchmark was defined on a shared 2-vCPU VM whose speed drifts with
// other tenants' load, for minutes at a time: run-native's median went from
// 57 to 99 ns/step between two sets of runs, with CPU time following wall
// time. Longer runs cannot average out a drift that slow, and a gate
// compares a change with a parent measured at another time.
//
// So each run also times a fixed reference loop — pseudo-random updates
// over a 32 MiB buffer, which, like the workloads, slows when other tenants
// crowd the shared last-level cache — and scales its end-to-end times by
// referenceNominal ÷ the loop's median pass in the run. A time then reads
// as the time on a host where a pass takes referenceNominal. The evidence
// that this tracks the drift is in README.md ("Scaling to a reference
// host").
//
// The loop runs in a child process, so its buffer neither counts in the
// measured process's peak resident set nor changes its garbage collector's
// pacing.
const (
	referenceSlots  = 1 << 22 // uint64s: 32 MiB
	referenceSteps  = 2_000_000
	referencePasses = 3 // timed passes per child
	// referenceNominal is about the loop's time on that VM in its quieter
	// minutes.
	referenceNominal = 25 * time.Millisecond
)

var referenceSink uint64

// referenceLoop touches every page of a fresh buffer, then times passes
// of referenceSteps pseudo-random read-modify-writes into it.
func referenceLoop(passes int) []time.Duration {
	buf := make([]uint64, referenceSlots)
	for i := range buf {
		buf[i] = uint64(i)
	}
	x := uint64(12345)
	out := make([]time.Duration, passes)
	for p := range out {
		t := time.Now()
		for i := 0; i < referenceSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			buf[(x>>20)&(referenceSlots-1)] += x
		}
		out[p] = time.Since(t)
	}
	referenceSink += buf[x&(referenceSlots-1)]
	return out
}

// printReference is the child's side: one line of nanoseconds per pass.
func printReference() {
	for _, d := range referenceLoop(referencePasses) {
		fmt.Println(d.Nanoseconds())
	}
}

// referenceChild runs the loop in a child process of this binary, started
// with --reference, and returns the passes' times.
func referenceChild() ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(exe, "--reference").Output()
	if err != nil {
		return nil, fmt.Errorf("reference loop: %w", err)
	}
	var ds []time.Duration
	for _, f := range strings.Fields(string(out)) {
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("reference loop printed %q", out)
		}
		ds = append(ds, time.Duration(ns))
	}
	if len(ds) != referencePasses {
		return nil, fmt.Errorf("reference loop printed %q", out)
	}
	return ds, nil
}
