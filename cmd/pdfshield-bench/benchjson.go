package main

// The -json mode: a machine-readable benchmark of the batch engine and
// the content-addressed front-end cache, designed so every perf PR can
// append a comparable record to the repo's trajectory instead of pasting
// prose. The workload is the duplicate-heavy corpus real malware feeds
// look like: a small set of unique carriers resubmitted many times
// (polymorphic campaigns reuse carriers), with the heavyweight documents
// carrying no Javascript at all — exactly the population the front-end
// cache exists for.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/serve"
)

// benchRecord is the committed trajectory format (BENCH_pr*.json).
type benchRecord struct {
	Schema    string `json:"schema"` // bumped on incompatible change
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the scheduler width the record ran under; on
	// single-core CI boxes GOMAXPROCS is raised past NumCPU so the worker
	// pool and VM dispatch still run genuinely interleaved.
	GoMaxProcs int   `json:"gomaxprocs"`
	Seed       int64 `json:"seed"`

	Corpus benchCorpus `json:"corpus"`

	// SerialUncached and ParallelUncached run the full front-end for every
	// document (fresh system per round, honoring the registry's duplicate
	// rule); ParallelCached runs one cached system over the whole corpus.
	SerialUncached   benchPass `json:"serial_uncached"`
	ParallelUncached benchPass `json:"parallel_uncached"`
	ParallelCached   benchPass `json:"parallel_cached"`

	// CacheSpeedup is cached vs uncached throughput at equal worker count.
	CacheSpeedup float64 `json:"cache_speedup"`
	// ParallelSpeedup is uncached parallel vs serial throughput.
	ParallelSpeedup float64     `json:"parallel_speedup"`
	Cache           cache.Stats `json:"cache"`
	CacheHitRate    float64     `json:"cache_hit_rate"`

	// Phases aggregates per-phase latency over the serial uncached pass
	// (Table X's columns, summed across the corpus). Sourced from the obs
	// registry's phase histograms — the same series /metrics exposes — not
	// from ad-hoc stopwatches.
	Phases benchPhases `json:"phases"`

	// Open benchmarks the reader-side open of JS-bearing documents under
	// both script engines (schema/2; zero-valued in older records).
	Open benchOpenPhase `json:"open_phase"`
	// JSEngine isolates the script engine on controlled workloads where
	// the parse/execute split — what bytecode compilation changes — is
	// explicit (schema/2).
	JSEngine []benchJSWorkload `json:"js_engine"`

	// Serve is the ingestion-daemon capacity section of a schema/3 record
	// (written by `pdfshield-serve -load -json`): docs/sec through the
	// admission queue, end-to-end latency percentiles, rejection rate.
	// Nil in batch-engine records; serve-only records in turn carry no
	// batch or open-phase sections.
	Serve *serve.LoadStats `json:"serve,omitempty"`

	// Triage is the static-triage-tier section of a schema/4 record: the
	// routing split over a mixed majority-confident-benign corpus, per-
	// route p50 end-to-end latency, and the docs/sec ratio of the full
	// pipeline with the tier on vs off. Nil in older and serve-only
	// records.
	Triage *benchTriage `json:"triage,omitempty"`

	// DeepScan is the forced-execution tier section of a schema/5 record:
	// detection uplift on gated evasive exploits at deep vs standard
	// depth, per-document explored path counts, and the p50 cost ratio of
	// a deep open. Nil in older and serve-only records.
	DeepScan *benchDeepScan `json:"deepscan,omitempty"`
}

type benchCorpus struct {
	Docs       int   `json:"docs"`
	Unique     int   `json:"unique"`
	Rounds     int   `json:"rounds"`
	TotalBytes int64 `json:"total_bytes"`
}

type benchPass struct {
	Workers    int     `json:"workers"`
	Docs       int     `json:"docs"`
	Failed     int     `json:"failed"`
	Malicious  int     `json:"malicious"`
	Seconds    float64 `json:"seconds"`
	DocsPerSec float64 `json:"docs_per_sec"`
}

type benchPhases struct {
	ParseDecompressSec   float64 `json:"parse_decompress_sec"`
	FeatureExtractionSec float64 `json:"feature_extraction_sec"`
	InstrumentationSec   float64 `json:"instrumentation_sec"`
}

// phaseDelta reads one pass's phase sums as the difference between two
// registry snapshots (the registry is process-wide and accumulates, so a
// pass's contribution is after − before).
func phaseDelta(before, after obs.Snapshot) benchPhases {
	sum := func(phase string) float64 {
		series := obs.PhaseSeries(phase)
		return after.Histograms[series].SumSeconds - before.Histograms[series].SumSeconds
	}
	return benchPhases{
		ParseDecompressSec:   sum(obs.PhaseParse),
		FeatureExtractionSec: sum(obs.PhaseAnalyze),
		InstrumentationSec:   sum(obs.PhaseInstrument),
	}
}

// benchCorpusDocs builds the duplicate-heavy corpus: `unique` distinct
// documents repeated over `rounds` rounds. The population is the one the
// front-end cache exists for: the scriptless attachments that make up
// ~95% of real intake (the paper's measured JS incidence) and that a
// scanning tier sees resubmitted all day. For these the entire
// per-document cost — parse, decompress, feature extraction, the
// no-javascript determination — is cacheable, so the benchmark isolates
// what the cache actually buys. Javascript-bearing and exploit documents
// are deliberately absent from the timed corpus: their reader-side open
// (script execution, spray simulation) runs on every submission in both
// passes by design — runtime features are per open — so including them
// benchmarks the reader emulator, not the cache; verdict parity on
// duplicate JS/malicious documents is covered by the pipeline tests.
func benchCorpusDocs(seed int64, unique, rounds int) ([][]pipeline.BatchDoc, int64) {
	g := corpus.NewGenerator(seed)
	samples := make([]corpus.Sample, 0, unique)
	for i := 0; len(samples) < unique; i++ {
		if i%5 == 0 {
			// Small single-body text documents: the “same memo forwarded
			// all day” population.
			samples = append(samples, g.BenignText((12+8*i)<<10))
			continue
		}
		// Compound report-plus-annexes documents, some owner-password
		// encrypted: the host parse, password strip, and recursive
		// attachment analysis are all front-end work a hit skips.
		samples = append(samples, g.BenignAttachments(2+i%3, i%2 == 0))
	}
	var total int64
	roundsOut := make([][]pipeline.BatchDoc, rounds)
	for r := 0; r < rounds; r++ {
		docs := make([]pipeline.BatchDoc, len(samples))
		for i, s := range samples {
			docs[i] = pipeline.BatchDoc{ID: fmt.Sprintf("bench-r%02d-%s", r, s.ID), Raw: s.Raw}
			total += int64(len(s.Raw))
		}
		roundsOut[r] = docs
	}
	return roundsOut, total
}

// benchReps is how many times each pass is repeated; the fastest rep is
// recorded. Individual passes over 50 small documents finish in
// milliseconds, where scheduler and GC noise would otherwise dominate
// run-to-run; min-of-N is the usual cure and treats all passes equally.
const benchReps = 7

// runUncached processes the corpus with the registry's duplicate rule
// intact: one fresh system per round (a system cannot re-instrument the
// same bytes), timing only the ProcessBatchContext calls. The corpus is run
// benchReps times and the fastest rep kept. Returns the pass plus the
// per-phase latency sums of the first rep (one pass over the corpus),
// read from the obs registry's phase histograms.
func runUncached(rounds [][]pipeline.BatchDoc, workers int, seed int64, depth pipeline.Depth) (benchPass, benchPhases, error) {
	best := benchPass{Workers: workers}
	var phases benchPhases
	for rep := 0; rep < benchReps; rep++ {
		var before obs.Snapshot
		if rep == 0 {
			before = obs.Default.Snapshot()
		}
		pass := benchPass{Workers: workers}
		for _, docs := range rounds {
			sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: seed, Depth: depth})
			if err != nil {
				return best, phases, err
			}
			start := time.Now()
			res := sys.ProcessBatchContext(context.Background(), docs, pipeline.BatchOptions{Workers: workers})
			pass.Seconds += time.Since(start).Seconds()
			collectPass(&pass, res)
			if err := sys.Close(); err != nil {
				return best, phases, err
			}
		}
		if rep == 0 {
			phases = phaseDelta(before, obs.Default.Snapshot())
		}
		if rep == 0 || pass.Seconds < best.Seconds {
			best = pass
		}
	}
	best.DocsPerSec = float64(best.Docs) / best.Seconds
	return best, phases, nil
}

// runCached processes the whole corpus with the front-end cache enabled:
// round 1 misses, every later round hits. Each rep gets a fresh system
// and cache so every rep sees the same miss/hit pattern; the fastest rep
// is kept (its cache stats describe any rep equally).
func runCached(rounds [][]pipeline.BatchDoc, workers int, seed int64, depth pipeline.Depth, cfg cache.Config) (benchPass, cache.Stats, error) {
	best := benchPass{Workers: workers}
	var bestStats cache.Stats
	all := make([]pipeline.BatchDoc, 0, len(rounds)*len(rounds[0]))
	for _, docs := range rounds {
		all = append(all, docs...)
	}
	for rep := 0; rep < benchReps; rep++ {
		pass := benchPass{Workers: workers}
		sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: seed, Depth: depth, Cache: &cfg})
		if err != nil {
			return best, bestStats, err
		}
		start := time.Now()
		res := sys.ProcessBatchContext(context.Background(), all, pipeline.BatchOptions{Workers: workers})
		pass.Seconds = time.Since(start).Seconds()
		collectPass(&pass, res)
		var stats cache.Stats
		if res.CacheStats != nil {
			stats = *res.CacheStats
		}
		if err := sys.Close(); err != nil {
			return best, bestStats, err
		}
		if rep == 0 || pass.Seconds < best.Seconds {
			best = pass
			bestStats = stats
		}
	}
	best.DocsPerSec = float64(best.Docs) / best.Seconds
	return best, bestStats, nil
}

func collectPass(pass *benchPass, res *pipeline.BatchResult) {
	pass.Docs += len(res.Verdicts)
	pass.Failed += res.Failed()
	for _, v := range res.Verdicts {
		if v != nil && v.Malicious {
			pass.Malicious++
		}
	}
}

// runJSONBench executes the three passes and writes the record. depth is
// the scan depth of the batch passes (empty = standard, keeping the
// committed trajectory comparable); the deep-scan section always runs
// both depths on its own evasive corpus.
func runJSONBench(path string, seed int64, workers, docs, unique int, depth pipeline.Depth, cacheCfg cache.Config) error {
	if seed == 0 {
		seed = 20140623
	}
	if unique <= 0 {
		unique = 10
	}
	if docs < unique {
		docs = unique
	}
	rounds := docs / unique
	if rounds < 1 {
		rounds = 1
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	corpusRounds, totalBytes := benchCorpusDocs(seed, unique, rounds)

	rec := benchRecord{
		Schema:     "pdfshield-bench/5",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Corpus: benchCorpus{
			Docs:       unique * rounds,
			Unique:     unique,
			Rounds:     rounds,
			TotalBytes: totalBytes,
		},
	}

	fmt.Printf("json bench: %d docs (%d unique × %d rounds, %.1f MB), workers %d\n",
		rec.Corpus.Docs, unique, rounds, float64(totalBytes)/(1<<20), workers)

	var phases benchPhases
	var err error
	rec.SerialUncached, phases, err = runUncached(corpusRounds, 1, seed, depth)
	if err != nil {
		return fmt.Errorf("serial uncached pass: %w", err)
	}
	rec.Phases = phases
	fmt.Printf("  serial uncached:   %.2f docs/sec\n", rec.SerialUncached.DocsPerSec)

	rec.ParallelUncached, _, err = runUncached(corpusRounds, workers, seed, depth)
	if err != nil {
		return fmt.Errorf("parallel uncached pass: %w", err)
	}
	fmt.Printf("  parallel uncached: %.2f docs/sec (workers %d)\n", rec.ParallelUncached.DocsPerSec, workers)

	var stats cache.Stats
	rec.ParallelCached, stats, err = runCached(corpusRounds, workers, seed, depth, cacheCfg)
	if err != nil {
		return fmt.Errorf("cached pass: %w", err)
	}
	rec.Cache = stats
	rec.CacheHitRate = stats.HitRate()
	fmt.Printf("  parallel cached:   %.2f docs/sec (%.0f%% hit rate)\n",
		rec.ParallelCached.DocsPerSec, rec.CacheHitRate*100)

	if rec.ParallelUncached.DocsPerSec > 0 {
		rec.CacheSpeedup = rec.ParallelCached.DocsPerSec / rec.ParallelUncached.DocsPerSec
	}
	if rec.SerialUncached.DocsPerSec > 0 {
		rec.ParallelSpeedup = rec.ParallelUncached.DocsPerSec / rec.SerialUncached.DocsPerSec
	}
	fmt.Printf("  cache speedup:     %.1fx\n", rec.CacheSpeedup)

	// Sanity cross-check: caching must not change what gets convicted.
	if rec.ParallelCached.Malicious != rec.ParallelUncached.Malicious {
		return fmt.Errorf("verdict divergence: cached pass convicted %d, uncached %d",
			rec.ParallelCached.Malicious, rec.ParallelUncached.Malicious)
	}

	rec.Open, err = runOpenBench(seed, openBenchDocCount, openBenchReps)
	if err != nil {
		return fmt.Errorf("open-phase bench: %w", err)
	}
	fmt.Printf("  open p50 (µs):     tree %.0f / bytecode cold %.0f / bytecode warm %.0f (%.2fx, %.0f%% unit hits)\n",
		rec.Open.TreeWalk.P50Us, rec.Open.BytecodeCold.P50Us, rec.Open.BytecodeWarm.P50Us,
		rec.Open.WarmSpeedup, rec.Open.UnitHitRate*100)

	rec.JSEngine, err = runJSEngineBench()
	if err != nil {
		return fmt.Errorf("js-engine bench: %w", err)
	}
	for _, w := range rec.JSEngine {
		fmt.Printf("  js %-18s tree %8.1fµs / bytecode %8.1fµs (%.2fx)\n", w.Name+":", w.TreeUs, w.VMUs, w.Speedup)
	}

	rec.Triage, err = runTriageBench(seed)
	if err != nil {
		return fmt.Errorf("triage bench: %w", err)
	}
	fmt.Printf("  triage:            %.1f → %.1f docs/sec (%.1fx) over %d docs\n",
		rec.Triage.Off.DocsPerSec, rec.Triage.On.DocsPerSec, rec.Triage.Speedup, rec.Triage.Docs)
	for _, r := range rec.Triage.Routes {
		fmt.Printf("  triage route %-12s %3d docs, p50 %8.1fµs\n", r.Route+":", r.Docs, r.P50Us)
	}

	rec.DeepScan, err = runDeepScanBench(seed)
	if err != nil {
		return fmt.Errorf("deep-scan bench: %w", err)
	}
	fmt.Printf("  deepscan:          %d/%d detected standard → %d/%d deep, p50 %.0f → %.0fµs (%.1fx)\n",
		rec.DeepScan.DetectedStandard, rec.DeepScan.Docs, rec.DeepScan.DetectedDeep, rec.DeepScan.Docs,
		rec.DeepScan.StandardP50Us, rec.DeepScan.DeepP50Us, rec.DeepScan.CostRatio)

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}
