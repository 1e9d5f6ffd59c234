package main

import (
	"fmt"
	"io"
	"strings"

	"agentring"
	"agentring/internal/core"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// spacetime runs the chosen algorithm under the synchronous scheduler,
// records agent positions after every atomic action, and renders a
// downsampled space-time diagram: one text row per sampled instant,
// one column per ring node.
func spacetime(out io.Writer, n, k int, algName string, seed int64, rows int) error {
	if n > 200 {
		return fmt.Errorf("spacetime rendering is limited to n <= 200 (got %d)", n)
	}
	homes, err := agentring.RandomHomes(n, k, seed)
	if err != nil {
		return err
	}
	programs := make([]sim.Program, k)
	for i := range programs {
		switch algName {
		case "native":
			programs[i], err = core.NewAlg1(core.KnowAgents, k)
		case "logspace":
			programs[i], err = core.NewAlg2(k)
		case "relaxed":
			programs[i] = core.NewRelaxed()
		default:
			err = fmt.Errorf("unknown algorithm %q", algName)
		}
		if err != nil {
			return err
		}
	}

	var frames [][]int
	observer := func(cfg sim.Configuration) {
		frame := make([]int, n)
		for i := range frame {
			frame[i] = -1
		}
		for v, agents := range cfg.Staying {
			for range agents {
				frame[v]++
			}
		}
		for v, q := range cfg.InTransit {
			for range q {
				frame[v]++ // in transit toward v: draw at the destination
			}
		}
		frames = append(frames, frame)
	}
	engine, err := sim.NewEngine(ring.MustNew(n), homes, programs, sim.Options{
		Scheduler: sim.NewSynchronous(),
		Observer:  observer,
	})
	if err != nil {
		return err
	}
	if _, err := engine.Run(); err != nil {
		return err
	}
	if rows < 2 {
		rows = 2
	}
	stride := (len(frames) + rows - 1) / rows
	if stride < 1 {
		stride = 1
	}
	fmt.Fprintf(out, "space-time diagram (%d sampled instants of %d, node 0 at the left):\n", (len(frames)+stride-1)/stride, len(frames))
	for i := 0; i < len(frames); i += stride {
		fmt.Fprintf(out, "%7d  %s\n", i, renderFrame(frames[i]))
	}
	last := len(frames) - 1
	if last%stride != 0 {
		fmt.Fprintf(out, "%7d  %s\n", last, renderFrame(frames[last]))
	}
	return nil
}

func renderFrame(frame []int) string {
	var b strings.Builder
	for _, c := range frame {
		switch {
		case c < 0:
			b.WriteByte('.')
		case c == 0:
			b.WriteByte('A')
		default:
			b.WriteByte(byte('1' + min(c, 8)))
		}
	}
	return b.String()
}
