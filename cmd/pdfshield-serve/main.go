// Command pdfshield-serve is the HTTP ingestion daemon: it accepts PDF
// submissions over POST /v1/scan (body = the raw PDF bytes) and answers the
// pipeline's verdict as JSON, with the document's trace and journal
// correlation IDs. The daemon fronts the pipeline with admission control:
// a bounded queue whose overflow answers 429 + Retry-After, and
// per-tenant token-bucket rate limits keyed on the X-Tenant header. Each
// daemon is one node that scans every document it admits.
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
//	                [-cache] [-cache-entries N] [-cache-bytes N]
//	                [-depth static|standard|deep|auto]
//	                [-seed N] [-journal events.jsonl] [-log-level info]
//	                [-pprof]
//
// The daemon also serves the live debug surface (/v1/debug/traces,
// /v1/debug/slow, /v1/debug/stalls), and with -pprof the net/http/pprof
// handlers at /debug/pprof. SIGQUIT prints a diagnostic dump (flight
// recorder with the slowest retained traces, stall reports, a full
// goroutine dump) to stderr without interrupting service.
//
// Throughput is measured with the repository benchmark,
// bash perfbench/run.sh.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
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
	useCache := flag.Bool("cache", true, "content-addressed front-end cache (byte-identical documents share instrumentation)")
	cacheEntries := flag.Int("cache-entries", 0, "cache entry cap (0 = default, negative = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 0, "cache byte cap (0 = default, negative = unlimited)")
	seed := flag.Int64("seed", 0, "instrumentation randomization seed (0 = time-based)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof (opt-in: profiles expose goroutine stacks and heap contents)")
	depthFlag := flag.String("depth", "", "scan depth: static|standard|deep|auto (empty = standard; auto adds forced-execution deep scans for triage-uncertain documents)")

	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	jOpts := cli.RegisterJournalFlags(flag.CommandLine, "pdfshield-serve")
	flag.Parse()

	logger, err := logOpts.SetupLogger("pdfshield-serve")
	if err != nil {
		return err
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
		Pprof:        *pprofOn,
	}
	if *useCache {
		cfg.Pipeline.Cache = &cache.Config{
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
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
	logger.Info("listening", "addr", srv.Addr(), "workers", cfg.Workers, "queue", cfg.QueueDepth)

	// Drain on SIGINT/SIGTERM: stop accepting, finish in-flight documents
	// under the drain deadline, flush the journal, then exit. SIGQUIT
	// prints a diagnostic dump (flight recorder, slowest traces, stall
	// reports, goroutines) to stderr and keeps serving — the kill -QUIT an operator
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
