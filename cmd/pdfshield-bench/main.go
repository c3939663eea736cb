// Command pdfshield-bench regenerates every table and figure of the
// paper's evaluation section on the synthetic corpus and prints them in
// paper order. Use -scale 1.0 for paper-size corpora (994 benign-with-JS /
// 1000 malicious in Table VIII; slower) or the default 0.1 for a quick
// pass.
//
// Usage:
//
//	pdfshield-bench [-scale 0.1] [-seed 20140623] [-only table-viii]
//	                [-out results.txt] [-list] [-workers N]
//	                [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	                [-metrics-addr host:port]
//
// -metrics-addr serves live counters and phase-latency histograms in
// Prometheus text format on /metrics while the run is in flight — point a
// scrape or curl at it to watch a long corpus pass progress.
//
// -workers widens the batch engine's worker pool for the corpus passes that
// run documents through the full pipeline (Table VIII, Table IX's mimicry
// pass, Figure 6's analysis sweep, the ablations). Verdicts are identical at
// any width; only wall-clock changes.
//
// -cpuprofile / -memprofile write pprof profiles of the run, so perf work
// starts from a profile instead of a guess.
//
// Throughput and latency are measured by perfbench (bash perfbench/run.sh);
// the per-family verdict gate is internal/experiments' TestDetectionGate.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pdfshield/internal/cli"
	"pdfshield/internal/experiments"
	"pdfshield/internal/obs"
)

func main() {
	if err := run(); err != nil {
		slog.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.Float64("scale", 0.1, "corpus scale relative to the paper (1.0 = full)")
	seed := flag.Int64("seed", 0, "experiment seed (0 = built-in default)")
	only := flag.String("only", "", "run a single experiment by id")
	outPath := flag.String("out", "", "also write rendered results to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", 1, "worker-pool width for pipeline corpus passes (1 = serial, matching the paper; try runtime.NumCPU())")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics on this address (/metrics); empty = off")
	pprofOn := flag.Bool("pprof", false, "also mount net/http/pprof at /debug/pprof on -metrics-addr (opt-in)")
	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	logger, err := logOpts.SetupLogger("pdfshield-bench")
	if err != nil {
		return err
	}

	if *list {
		for _, exp := range experiments.All() {
			fmt.Println(exp.ID)
		}
		return nil
	}

	if *metricsAddr != "" {
		// Systems built without an explicit Obs option report into the
		// process-wide default registry, so one endpoint covers the suite.
		srv, err := obs.Default.ServeMetricsDiag(*metricsAddr, nil, *pprofOn)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer srv.Close()
		logger.Info("serving metrics", "url", fmt.Sprintf("http://%s/metrics", srv.Addr))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				logger.Error("memprofile", "err", err)
				return
			}
			defer func() { _ = f.Close() }()
			runtime.GC() // materialize final live-set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Error("memprofile", "err", err)
			}
		}()
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	var w io.Writer = os.Stdout
	var file *os.File
	if *outPath != "" {
		var err error
		file, err = os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() { _ = file.Close() }()
		w = io.MultiWriter(os.Stdout, file)
	}

	fmt.Fprintf(w, "pdfshield evaluation harness — scale %.2f, seed %d, workers %d\n", *scale, *seed, *workers)
	fmt.Fprintf(w, "started %s\n\n", time.Now().Format(time.RFC3339))

	if *only != "" {
		for _, exp := range experiments.All() {
			if exp.ID != *only {
				continue
			}
			start := time.Now()
			res := exp.Run(cfg)
			fmt.Fprintf(w, "%s\n[%s finished in %.1fs]\n", res.Render(), exp.ID, time.Since(start).Seconds())
			return nil
		}
		return fmt.Errorf("unknown experiment %q (see -list)", *only)
	}

	experiments.RunAll(cfg, w)
	return nil
}
