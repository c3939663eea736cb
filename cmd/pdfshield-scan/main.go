// Command pdfshield-scan is the front-end CLI: it statically analyzes PDF
// documents, reports the five static features and the Javascript chains, and
// (unless -analyze is given) writes an instrumented copy plus the
// de-instrumentation spec for each input.
//
// Multiple inputs are processed concurrently by a worker pool (-workers,
// default: the number of CPUs); reports are printed in input order. A
// content-addressed cache (on by default, -cache=false to disable)
// deduplicates identical inputs: byte-identical files are instrumented
// once and share the result, and a summary of hits/misses/evictions is
// printed after the scan.
//
// Usage:
//
//	pdfshield-scan [-analyze] [-depth static|standard|deep|auto]
//	               [-out instrumented.pdf] [-spec spec.json]
//	               [-workers N] [-cache] [-cache-entries N]
//	               [-cache-bytes N] [-metrics-addr host:port]
//	               [-log-level info] [-log-json]
//	               input.pdf [input2.pdf ...]
//
// -metrics-addr serves live counters and phase-latency histograms in
// Prometheus text format on /metrics for the duration of the scan.
//
// Monitoring code reports to instrument.DefaultEndpoint, the endpoint of
// a detector that runs in the reader's process. Every scan instruments
// under a fresh registry and detector identity, as pipeline.NewSystem
// does; the forensic journal belongs to the commands that run the
// detector (pdfshield-serve -journal).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"sync"

	"pdfshield/internal/cache"
	"pdfshield/internal/cli"
	"pdfshield/internal/instrument"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/triage"
)

func main() {
	if err := run(); err != nil {
		slog.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run() error {
	analyzeOnly := flag.Bool("analyze", false, "analyze only; do not instrument")
	outPath := flag.String("out", "", "instrumented output path (default: <input>.instrumented.pdf; single input only)")
	specPath := flag.String("spec", "", "de-instrumentation spec output path (default: <input>.spec.json; single input only)")
	seed := flag.Int64("seed", 0, "randomization seed (0 = time-based)")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent workers when scanning multiple inputs")
	useCache := flag.Bool("cache", true, "deduplicate byte-identical inputs through the content-addressed front-end cache")
	cacheEntries := flag.Int("cache-entries", 0, "cache entry cap (0 = default, negative = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 0, "cache byte cap (0 = default, negative = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics on this address (/metrics); empty = off")
	pprofOn := flag.Bool("pprof", false, "also mount net/http/pprof at /debug/pprof on -metrics-addr (opt-in)")
	depthFlag := flag.String("depth", "", "scan depth: static|standard|deep|auto (same vocabulary as the pipeline commands; static and auto include the triage report)")
	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	logger, err := logOpts.SetupLogger("pdfshield-scan")
	if err != nil {
		return err
	}

	// The front-end never opens a sandbox, so depth only selects the
	// static stages here: the depths with a triage tier turn the triage
	// report on. Parsing through the pipeline keeps the vocabulary (and
	// the error for a typo'd depth) identical across all four commands.
	depth, err := pipeline.ParseDepth(*depthFlag)
	if err != nil {
		return err
	}
	triageReport := depth == pipeline.DepthStatic || depth == pipeline.DepthAuto

	if flag.NArg() < 1 {
		flag.Usage()
		return errors.New("at least one input file required")
	}
	inputs := flag.Args()
	if len(inputs) > 1 && (*outPath != "" || *specPath != "") {
		return errors.New("-out/-spec require a single input; defaults are used per file otherwise")
	}

	id, err := instrument.NewDetectorID(nil)
	if err != nil {
		return err
	}
	registry := instrument.NewRegistry(id)
	if *metricsAddr != "" {
		srv, err := obs.Default.ServeMetricsDiag(*metricsAddr, nil, *pprofOn)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer srv.Close()
		logger.Info("serving metrics", "url", fmt.Sprintf("http://%s/metrics", srv.Addr))
	}
	// The instrumenter and registry are safe for concurrent use; one pair
	// serves all workers so keys stay unique across the whole scan.
	ins := instrument.New(registry, instrument.Options{Seed: *seed, Obs: obs.Default})
	var fc *cache.Cache
	if *useCache {
		fc = cache.New(cache.Config{
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
		})
		fc.RegisterMetrics(obs.Default)
	}

	reports := make([]string, len(inputs))
	errs := make([]error, len(inputs))
	nw := *workers
	if nw <= 0 {
		nw = runtime.NumCPU()
	}
	if nw > len(inputs) {
		nw = len(inputs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reports[i], errs[i] = scanFile(inputs[i], ins, fc, *analyzeOnly, triageReport, *outPath, *specPath)
			}
		}()
	}
	for i := range inputs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var firstErr error
	for i := range inputs {
		if reports[i] != "" {
			fmt.Print(reports[i])
		}
		if errs[i] != nil {
			logger.Error("input failed", "input", inputs[i], "err", errs[i])
			if firstErr == nil {
				firstErr = errs[i]
			}
		}
	}
	if fc != nil && !*analyzeOnly {
		s := fc.Stats()
		fmt.Printf("cache:             %d hits, %d shared, %d misses (%.0f%% hit rate), %d evicted, %d resident (%d bytes)\n",
			s.Hits, s.Shared, s.Misses, s.HitRate()*100, s.Evictions, s.Entries, s.Bytes)
	}
	if firstErr != nil {
		return fmt.Errorf("one or more inputs failed: %w", firstErr)
	}
	return nil
}

// scanFile analyzes (and optionally instruments) one input, returning its
// rendered report. It only writes the per-input output/spec files; stdout
// ordering is the caller's job. The document is parsed exactly once for
// analysis: embedded extraction reuses the parsed host instead of a
// second pdf.Parse over the same bytes.
func scanFile(input string, ins *instrument.Instrumenter, fc *cache.Cache, analyzeOnly, useTriage bool, outPath, specPath string) (string, error) {
	var sb strings.Builder
	raw, err := os.ReadFile(input)
	if err != nil {
		return "", err
	}
	feats, chains, doc, err := instrument.Analyze(raw)
	if err != nil {
		return "", fmt.Errorf("analyze: %w", err)
	}
	merged, embedded := instrument.AnalyzeDeepDoc(doc, feats)
	fmt.Fprintf(&sb, "file:              %s (%d bytes)\n", input, len(raw))
	fmt.Fprintf(&sb, "static features:   %s\n", feats)
	if len(embedded) > 0 {
		fmt.Fprintf(&sb, "embedded PDFs:     %d (merged features: %s)\n", len(embedded), merged)
	}
	fmt.Fprintf(&sb, "feature vector:    F1..F5 = %v (merged %v)\n", feats.Vector(), merged.Vector())
	fmt.Fprintf(&sb, "javascript chains: %d (triggered shown below)\n", len(chains.Chains))
	for _, c := range chains.Chains {
		if !c.Triggered {
			continue
		}
		preview := c.Source
		if len(preview) > 60 {
			preview = preview[:60] + "..."
		}
		fmt.Fprintf(&sb, "  holder obj %-4d trigger=%-18s %d chars: %q\n", c.Holder, c.Trigger, len(c.Source), preview)
	}
	if analyzeOnly {
		if useTriage {
			// Bytes-plus-analysis triage: the same decision the pipeline
			// tier makes, minus the embedded-document recursion the full
			// front-end performs.
			d := triage.Evaluate(triage.Config{}, raw, &instrument.Result{
				Features:    feats,
				Chains:      chains,
				Recovered:   doc.Recovered,
				ObjectCount: chains.TotalObjects,
			})
			writeTriageReport(&sb, d)
		}
		return sb.String(), nil
	}
	if !merged.HasJavaScript {
		sb.WriteString("no javascript anywhere: nothing to instrument\n")
		return sb.String(), nil
	}

	res, cached, err := instrumentCached(input, raw, ins, fc)
	if err != nil {
		return sb.String(), fmt.Errorf("instrument: %w", err)
	}
	if useTriage {
		writeTriageReport(&sb, triage.Evaluate(triage.Config{}, raw, res))
	}

	out := outPath
	if out == "" {
		out = input + ".instrumented.pdf"
	}
	if err := os.WriteFile(out, res.Output, 0o600); err != nil {
		return sb.String(), err
	}
	spec := specPath
	if spec == "" {
		spec = input + ".spec.json"
	}
	specJSON, err := json.MarshalIndent(res.Spec, "", "  ")
	if err != nil {
		return sb.String(), err
	}
	if err := os.WriteFile(spec, specJSON, 0o600); err != nil {
		return sb.String(), err
	}

	fmt.Fprintf(&sb, "instrumented:      %s (%d scripts, %d staged rewrites, %d embedded docs)\n", out, res.ScriptsInstrumented, res.StagedRewrites, len(res.Embedded))
	if cached {
		fmt.Fprintf(&sb, "cache:             hit — identical to %s (hash %s)\n", res.DocID, res.ContentHash[:12])
	}
	if res.Key.InstrKey != "" {
		fmt.Fprintf(&sb, "protection key:    %s\n", res.Key)
	}
	for _, emb := range res.Embedded {
		fmt.Fprintf(&sb, "embedded key:      %s -> %s\n", emb.DocID, emb.Key)
	}
	fmt.Fprintf(&sb, "spec:              %s\n", spec)
	fmt.Fprintf(&sb, "timing:            parse %.4fs, features %.4fs, instrument %.4fs\n",
		res.Timing.ParseDecompress.Seconds(), res.Timing.FeatureExtraction.Seconds(), res.Timing.Instrumentation.Seconds())
	return sb.String(), nil
}

// writeTriageReport renders the static triage decision: the route plus
// whichever evidence produced it.
func writeTriageReport(sb *strings.Builder, d triage.Decision) {
	fmt.Fprintf(sb, "triage route:      %s (score %d, %d scripts analyzed)\n", d.Route, d.Score, d.Scripts)
	if len(d.Signals) > 0 {
		fmt.Fprintf(sb, "triage signals:    %s\n", strings.Join(d.Signals, ", "))
	}
	if len(d.Uncertain) > 0 {
		fmt.Fprintf(sb, "triage fail-safe:  %s\n", strings.Join(d.Uncertain, ", "))
	}
}

// instrumentCached routes instrumentation through the cache when enabled.
// The content hash is computed once and feeds the cache key, the registry
// record, and the report. cached reports whether this call skipped the
// front-end (completed entry or shared singleflight flight).
func instrumentCached(input string, raw []byte, ins *instrument.Instrumenter, fc *cache.Cache) (*instrument.Result, bool, error) {
	hash := instrument.ContentHash(raw)
	if fc == nil {
		res, err := ins.InstrumentBytesWithHash(input, raw, hash)
		return res, false, err
	}
	res, err, hit := fc.Do(hash, func() (*instrument.Result, error) {
		return ins.InstrumentBytesWithHash(input, raw, hash)
	})
	return res, hit, err
}
