package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
)

// The instrumentation seed and detector identity are fixed, so the system
// under test behaves the same on every run; only the workload seed varies
// the inputs.
const (
	instrumentSeed = 20140623
	detectorID     = "0a11ce5eed0a11ce5eed0a11"
)

// outcome is one submission's result as the benchmark records it.
type outcome struct {
	malicious bool
	noJS      bool
	route     string
	err       error
	latency   time.Duration
}

func verdictOutcome(v *pipeline.Verdict, err error) outcome {
	o := outcome{err: err}
	if err == nil && v == nil {
		o.err = fmt.Errorf("no verdict")
	}
	if v != nil {
		o.malicious, o.noJS, o.route = v.Malicious, v.NoJavaScript, v.TriageRoute
	}
	return o
}

// closedLoop runs clients goroutines that each take the next submission
// only after their previous one returned, until the window closes or the
// submissions run out. A submission started inside the window finishes.
// It returns the outcomes of the submissions that ran, always a prefix of
// subs, and the wall time until the last one ended.
func closedLoop(subs []submission, clients int, window time.Duration, process func(client int, s submission) outcome) ([]outcome, time.Duration) {
	outs := make([]outcome, len(subs))
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				t := time.Now()
				o := process(c, subs[i])
				o.latency = time.Since(t)
				outs[i] = o
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	n := int(next.Load())
	if n > len(subs) {
		n = len(subs)
	}
	return outs[:n], wall
}

// forever is a window no warm-up reaches.
const forever = 24 * time.Hour

// newSystem builds the system under test with pdfshield-serve's defaults:
// front-end cache on at default caps, diagnostics on, no journal.
func newSystem(depth pipeline.Depth) (*pipeline.System, error) {
	return pipeline.NewSystem(pipeline.Options{
		Seed:       instrumentSeed,
		DetectorID: detectorID,
		Obs:        obs.NewRegistry(),
		JSUnits:    js.NewUnitCache(js.DefaultUnitCacheBytes),
		Cache:      &cache.Config{},
		Depth:      depth,
	})
}

// window is what one timed window measured.
type window struct {
	outs   []outcome
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	// peakLive is the peak live heap during the window.
	peakLive uint64
	// stealFrac is the share of the machine's CPU time the hypervisor
	// stole during the window.
	stealFrac float64
}

func (w *window) docs() int { return len(w.outs) }

// pipelineRun is an untraced run: set-up times and one timed window.
type pipelineRun struct {
	setups []float64 // seconds, one per set-up repetition
	window
}

// runPipeline sets the system up setupReps times (keeping the last), runs
// the warm-up, then drives the timed window through clients
// pipeline.Workers in a closed loop.
func runPipeline(depth pipeline.Depth, st *stream, clients, setupReps int, dur time.Duration) (*pipelineRun, error) {
	run := &pipelineRun{}
	var sys *pipeline.System
	var workers []*pipeline.Worker
	teardown := func() {
		for _, w := range workers {
			w.Close()
		}
		if sys != nil {
			_ = sys.Close()
		}
	}
	defer func() { teardown() }()
	for r := 0; r < setupReps; r++ {
		teardown()
		start := time.Now()
		var err error
		sys, err = newSystem(depth)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		workers = make([]*pipeline.Worker, clients)
		for i := range workers {
			workers[i] = sys.NewWorker()
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
	}

	ctx := context.Background()
	process := func(c int, s submission) outcome {
		return verdictOutcome(workers[c].Process(ctx, pipeline.BatchDoc{ID: s.id, Raw: s.doc.raw}))
	}
	if err := warmUp(st, clients, process); err != nil {
		return nil, err
	}
	run.window = measureWindow(st.subs, clients, dur, process)
	return run, nil
}

// warmUp processes the stream's warm-up submissions outside any timing.
func warmUp(st *stream, clients int, process func(int, submission) outcome) error {
	outs, _ := closedLoop(st.warm, clients, forever, process)
	for i, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up %s: %w", st.warm[i].id, o.err)
		}
	}
	return nil
}

// measureWindow runs one timed closed-loop window and records its CPU
// time, heap allocation, steal share and peak live heap.
func measureWindow(subs []submission, clients int, dur time.Duration, process func(int, submission) outcome) window {
	runtime.GC()
	first := takeSample()
	peak := startHeapPeak(10 * time.Millisecond)
	outs, wall := closedLoop(subs, clients, dur, process)
	peakLive := peak.Stop()
	last := takeSample()
	return window{
		outs:      outs,
		wall:      wall,
		cpu:       last.cpu - first.cpu,
		allocs:    last.allocs - first.allocs,
		peakLive:  peakLive,
		stealFrac: ratio(float64(last.steal-first.steal), float64(last.ticks-first.ticks)),
	}
}
