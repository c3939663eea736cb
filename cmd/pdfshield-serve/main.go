// Command pdfshield-serve is the HTTP ingestion daemon: it accepts PDF
// submissions over POST /v1/scan (body = the raw PDF bytes) and answers the
// pipeline's verdict as JSON, with the document's trace and journal
// correlation IDs. The daemon fronts the pipeline with admission control:
// a bounded queue whose overflow answers 429 + Retry-After, per-tenant
// token-bucket rate limits keyed on the X-Tenant header, and — in a
// multi-backend deployment (-peers/-self) — consistent-hash routing on
// the document content hash so each peer's front-end cache holds its
// shard of the content space.
//
// SIGINT/SIGTERM drain the daemon: the listener stops accepting,
// in-flight documents finish under -drain-timeout, and the forensic
// journal is flushed before exit. /v1/healthz answers 503 while draining
// so load balancers rotate the node out; /v1/metrics serves the live
// registry on the same listener.
//
// -depth selects the scan tier: "static" (triage only, no sandbox),
// "standard" (the default dynamic open), "deep" (forced execution on
// every open) or "auto" (triage plus forced execution for uncertain
// documents).
//
// Usage:
//
//	pdfshield-serve [-addr :8947] [-workers N] [-queue N]
//	                [-max-doc-bytes N] [-drain-timeout d]
//	                [-tenant-rate R] [-tenant-burst N]
//	                [-peers a:1,b:2] [-self a:1]
//	                [-cache] [-cache-entries N] [-cache-bytes N] [-cache-ttl d]
//	                [-depth static|standard|deep|auto]
//	                [-seed N] [-journal events.jsonl] [-log-level info]
//	                [-pprof]
//
// The daemon also serves the live debug surface (/v1/debug/traces,
// /v1/debug/slow, /v1/debug/slo, /v1/debug/stalls), and with -pprof the
// net/http/pprof handlers at /debug/pprof. SIGQUIT prints a diagnostic
// dump (SLO burn rates, slowest retained traces, stall reports, a full
// goroutine dump) to stderr without interrupting service. One-shot
// remote diagnosis of a running node:
//
//	pdfshield-serve -doctor host:port
//
// Load generator (capacity measurement against a running daemon):
//
//	pdfshield-serve -load -target http://host:port [-load-docs N]
//	                [-load-unique N] [-load-concurrency N] [-load-tenant T]
//	                [-load-journal events.jsonl] [-json BENCH.json]
//
// -load replays a duplicate-heavy corpus (or, with -load-journal, the
// doc-open stream of a recorded journal) against -target and emits a
// schema pdfshield-bench/3 record: docs/sec, p50/p99 end-to-end latency,
// and the rejection rate under backpressure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"pdfshield/internal/cache"
	"pdfshield/internal/cli"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/serve"
)

func main() {
	if err := run(); err != nil {
		slog.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8947", "listen address (\":0\" picks a free port)")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent scan lanes (each owns one recycled reader session)")
	queueDepth := flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth; overflow answers 429 + Retry-After")
	maxDocBytes := flag.Int64("max-doc-bytes", serve.DefaultMaxDocBytes, "largest accepted document body in bytes")
	drainTimeout := flag.Duration("drain-timeout", serve.DefaultDrainTimeout, "how long shutdown waits for in-flight documents")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admitted docs/second (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant burst ceiling (0 = max(rate,1))")
	peers := flag.String("peers", "", "comma-separated backend list for consistent-hash routing (empty = single node)")
	self := flag.String("self", "", "this node's entry in -peers")
	useCache := flag.Bool("cache", true, "content-addressed front-end cache (byte-identical documents share instrumentation)")
	cacheEntries := flag.Int("cache-entries", 0, "cache entry cap (0 = default, negative = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 0, "cache byte cap (0 = default, negative = unlimited)")
	cacheTTL := flag.Duration("cache-ttl", 0, "cache entry time-to-live (0 = never expires)")
	seed := flag.Int64("seed", 0, "instrumentation randomization seed (0 = time-based)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof (opt-in: profiles expose goroutine stacks and heap contents)")
	doctor := flag.String("doctor", "", "one-shot: fetch and pretty-print a running daemon's diagnostics (health, SLO burn rates, slow traces, stalls) from this address, then exit")
	depthFlag := flag.String("depth", "", "scan depth: static|standard|deep|auto (empty = standard; auto adds forced-execution deep scans for triage-uncertain documents)")

	load := flag.Bool("load", false, "run the load generator against -target instead of serving")
	target := flag.String("target", "", "load: base URL of the running daemon (http://host:port)")
	loadDocs := flag.Int("load-docs", 200, "load: total documents to submit")
	loadUnique := flag.Int("load-unique", 5, "load: unique documents (the rest are byte-identical duplicates)")
	loadConcurrency := flag.Int("load-concurrency", 16, "load: parallel submitters")
	loadTenant := flag.String("load-tenant", "", "load: X-Tenant stamped on every submission")
	loadJournal := flag.String("load-journal", "", "load: replay this journal's doc-open stream as the submission order")
	jsonPath := flag.String("json", "", "load: write the pdfshield-bench/3 record to this file")

	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	jOpts := cli.RegisterJournalFlags(flag.CommandLine, "pdfshield-serve")
	flag.Parse()

	logger, err := logOpts.SetupLogger("pdfshield-serve")
	if err != nil {
		return err
	}

	if *doctor != "" {
		return serve.RunDoctor(*doctor, os.Stdout)
	}

	if *load {
		return runLoad(serve.LoadConfig{
			Target:      *target,
			Docs:        *loadDocs,
			Unique:      *loadUnique,
			Concurrency: *loadConcurrency,
			Seed:        *seed,
			Tenant:      *loadTenant,
			JournalPath: *loadJournal,
		}, *jsonPath)
	}

	jw, err := jOpts.Open(obs.Default)
	if err != nil {
		return err
	}
	defer func() {
		if jw == nil {
			return
		}
		if err := jw.Close(); err != nil {
			logger.Warn("journal close failed", "err", err)
		}
		if err := jw.Err(); err != nil {
			logger.Warn("journal is partial", "err", err, "dropped", jw.Dropped())
		}
	}()

	cfg := serve.Config{
		Pipeline: pipeline.Options{
			Seed:    *seed,
			Obs:     obs.Default,
			Journal: jw,
		},
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		MaxDocBytes:  *maxDocBytes,
		DrainTimeout: *drainTimeout,
		TenantRate:   *tenantRate,
		TenantBurst:  *tenantBurst,
		Self:         *self,
		Pprof:        *pprofOn,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if *useCache {
		cfg.Pipeline.Cache = &cache.Config{
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
			TTL:        *cacheTTL,
		}
	}
	depth, err := pipeline.ParseDepth(*depthFlag)
	if err != nil {
		return err
	}
	cfg.Pipeline.Depth = depth

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		return err
	}
	logger.Info("listening", "addr", srv.Addr(), "workers", cfg.Workers, "queue", cfg.QueueDepth, "peers", len(cfg.Peers))

	// Drain on SIGINT/SIGTERM: stop accepting, finish in-flight documents
	// under the drain deadline, flush the journal, then exit. SIGQUIT
	// prints a diagnostic dump (SLO status, slowest traces, stall reports,
	// goroutines) to stderr and keeps serving — the kill -QUIT an operator
	// sends a wedged-looking node before deciding whether to restart it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	var got os.Signal
	for got = range sig {
		if got == syscall.SIGQUIT {
			srv.System().Diagnostics().WriteDump(os.Stderr)
			continue
		}
		break
	}
	signal.Stop(sig)
	logger.Info("draining", "signal", got.String(), "deadline", drainTimeout.String())

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	logger.Info("drained")
	return nil
}

// runLoad drives one load pass and writes/prints its record.
func runLoad(cfg serve.LoadConfig, jsonPath string) error {
	rec, err := serve.RunLoad(cfg, os.Stderr)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := rec.WriteRecord(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "load: record written to %s\n", jsonPath)
		return nil
	}
	// No -json: print the record to stdout so the pass is still capturable.
	s := rec.Serve
	fmt.Printf("target:            %s\n", s.Target)
	fmt.Printf("submitted:         %d docs (%d unique), concurrency %d\n", s.Docs, rec.Corpus.Unique, s.Concurrency)
	fmt.Printf("completed:         %d (%d malicious, %d no-js, %d failed)\n", s.Completed, s.Malicious, s.NoJS, s.Failed)
	fmt.Printf("backpressure:      %d x 429 (%.1f%% rejection), %d retries\n", s.Rejected429, s.RejectionRate*100, s.Retries)
	fmt.Printf("throughput:        %.1f docs/sec over %.2fs\n", s.DocsPerSec, s.Seconds)
	fmt.Printf("latency:           p50 %.2fms, p90 %.2fms, p99 %.2fms\n", s.P50Ms, s.P90Ms, s.P99Ms)
	return nil
}
