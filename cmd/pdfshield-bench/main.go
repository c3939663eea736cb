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
//	                [-json bench.json] [-depth static|standard|deep|auto]
//	                [-bench-docs 50] [-bench-unique 10]
//	                [-cache-entries N] [-cache-bytes N] [-cache-ttl d]
//	                [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	                [-metrics-addr host:port]
//	pdfshield-bench -compare OLD.json NEW.json
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
// -json switches to the machine-readable batch benchmark instead of the
// experiment suite: a duplicate-heavy corpus (-bench-docs documents over
// -bench-unique unique carriers) is processed serial-uncached,
// parallel-uncached and parallel-cached, and the docs/sec, cache hit rate
// and per-phase front-end timings are written as one JSON record
// (committed as BENCH_pr<N>.json to track the perf trajectory across PRs).
// The -cache-* flags bound the cached pass's front-end cache.
//
// -cpuprofile / -memprofile write pprof profiles of whichever mode ran, so
// perf work starts from a profile instead of a guess.
//
// -compare diffs two committed records and exits non-zero on a
// regression: warm open-phase p50 or parallel-cached docs/sec more than
// 10% worse, or any decrease in the deep-depth evasive detection rate —
// the CI gates behind `make bench-compare`.
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

	"pdfshield/internal/cache"
	"pdfshield/internal/cli"
	"pdfshield/internal/experiments"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
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
	jsonPath := flag.String("json", "", "write a machine-readable batch/cache benchmark record to this file (skips the experiment suite)")
	depthFlag := flag.String("depth", "", "scan depth for the -json batch passes: static|standard|deep|auto (empty = standard; the experiment suite always runs the paper's standard depth)")
	benchDocs := flag.Int("bench-docs", 50, "total documents in the -json benchmark corpus")
	benchUnique := flag.Int("bench-unique", 5, "unique documents in the -json benchmark corpus (the rest are byte-identical duplicates)")
	cacheEntries := flag.Int("cache-entries", 0, "front-end cache entry cap for the -json cached pass (0 = default)")
	cacheBytes := flag.Int64("cache-bytes", 0, "front-end cache byte cap for the -json cached pass (0 = default)")
	cacheTTL := flag.Duration("cache-ttl", 0, "front-end cache TTL for the -json cached pass (0 = never expires)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics on this address (/metrics); empty = off")
	pprofOn := flag.Bool("pprof", false, "also mount net/http/pprof at /debug/pprof on -metrics-addr (opt-in)")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json records (positional args: OLD NEW); non-zero exit on >10% open-p50 regression")
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

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two record paths: OLD NEW")
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}

	if *metricsAddr != "" {
		// Both modes report into the process-wide default registry (systems
		// built without an explicit Obs option land there), so one endpoint
		// covers the experiment suite and the -json benchmark alike.
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

	depth, err := pipeline.ParseDepth(*depthFlag)
	if err != nil {
		return err
	}

	if *jsonPath != "" {
		cfg := cache.Config{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes, TTL: *cacheTTL}
		return runJSONBench(*jsonPath, *seed, *workers, *benchDocs, *benchUnique, depth, cfg)
	}
	if depth != "" && depth != pipeline.DepthStandard {
		// The suite regenerates the paper's tables; its configuration is the
		// paper's (standard depth), not an operator choice.
		return fmt.Errorf("-depth %s: the experiment suite reproduces the paper at standard depth (use -json for depth-aware benchmarks)", depth)
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
