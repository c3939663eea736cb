// Command pdfshield-detect runs the runtime detector as a stand-alone
// process: the tiny SOAP server receives context notifications from
// instrumented documents, the TCP hook endpoint receives captured API
// calls, and alerts stream to stdout.
//
// Usage:
//
//	pdfshield-detect -registry registry.json [-downloads downloads.json]
//	                 [-duration 30s] [-journal events.jsonl]
//	                 [-log-level info] [-log-json]
//	pdfshield-detect -registry registry.json -replay events.jsonl
//	                 [-depth static|standard|deep|auto]
//
// -journal records every detector event (context transitions, hooked API
// calls with their confinement decisions, feature triggers, alerts with
// the per-feature malscore breakdown) to a JSONL forensic journal,
// flushed per event so the record survives a crash.
//
// -replay re-feeds a recorded journal through a fresh detector state
// machine — no listeners, no live readers — and verifies the replay
// reproduces the recorded canonical event stream (feature triggers,
// malscores, alert ordering) byte-for-byte. When the recording contains
// static triage routes, each routed document is also cross-checked: a
// confident-benign route must carry a benign verdict, a confident-
// malicious route a malicious one, and neither may have detector events
// (the routed document never reached a reader). Alerts raised during the
// replay print in the live format; any divergence is reported and the
// command exits non-zero.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdfshield/internal/cli"
	"pdfshield/internal/detect"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/winos"
)

func main() {
	if err := run(); err != nil {
		slog.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run() error {
	registryPath := flag.String("registry", "", "registry JSON produced by pdfshield-scan (required)")
	downloadsPath := flag.String("downloads", "", "persistent downloaded-executables list")
	duration := flag.Duration("duration", 0, "exit after this long (0 = until SIGINT)")
	pollEvery := flag.Duration("poll", time.Second, "alert polling interval")
	replayPath := flag.String("replay", "", "replay a recorded journal through a fresh detector and verify determinism (no listeners started)")
	depthFlag := flag.String("depth", "", "scan depth the recording was made at: static|standard|deep|auto (replay cross-checks deep-scan records; -depth deep requires them)")
	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	jOpts := cli.RegisterJournalFlags(flag.CommandLine, "pdfshield-detect")
	flag.Parse()

	logger, err := logOpts.SetupLogger("pdfshield-detect")
	if err != nil {
		return err
	}

	// The detector itself is depth-agnostic — runtime events look the same
	// whichever tier produced them — but the flag shares the pipeline
	// vocabulary so operators can assert what kind of run a recording
	// came from (see verifyDeepScan).
	depth, err := pipeline.ParseDepth(*depthFlag)
	if err != nil {
		return err
	}

	if *registryPath == "" {
		flag.Usage()
		return fmt.Errorf("-registry is required")
	}
	registry, err := instrument.LoadRegistryJSON(*registryPath)
	if err != nil {
		return err
	}

	if *replayPath != "" {
		return runReplay(*replayPath, registry, *downloadsPath, depth, logger)
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

	det, err := detect.New(detect.Config{
		Registry:      registry,
		OS:            winos.NewOS(),
		DownloadsPath: *downloadsPath,
		Obs:           obs.Default,
		Journal:       jw,
	})
	if err != nil {
		return err
	}
	if err := det.Start(); err != nil {
		return err
	}
	defer func() { _ = det.Close() }()

	logger.Info("detector running",
		"detector_id", registry.DetectorID(),
		"soap_endpoint", det.SOAPURL(),
		"hook_endpoint", det.HookAddr(),
		"documents", registry.Len())
	if jOpts.Path != "" {
		logger.Info("journaling", "path", jOpts.Path, "session", jOpts.Session)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	// SIGQUIT prints a diagnostic dump (build identity + goroutines) to
	// stderr and keeps the detector running.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}

	seen := 0
	ticker := time.NewTicker(*pollEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			seen = printNewAlerts(os.Stdout, det, seen, logger)
		case <-quit:
			var diag *obs.Diagnostics
			diag.WriteDump(os.Stderr)
		case <-stop:
			seen = printNewAlerts(os.Stdout, det, seen, logger)
			logger.Info("shutting down", "alerts", seen)
			return nil
		case <-deadline:
			seen = printNewAlerts(os.Stdout, det, seen, logger)
			logger.Info("duration elapsed", "alerts", seen)
			return nil
		}
	}
}

// printNewAlerts prints the alerts raised since the first seen ones and
// returns the new total. The detector retains only its most recent
// detect.AlertHistory alerts, so a burst larger than that between two
// polls loses the oldest of the burst; the loss is logged.
func printNewAlerts(w io.Writer, det *detect.Detector, seen int, logger *slog.Logger) int {
	alerts, total := det.AlertsSince(seen)
	if lost := total - seen - len(alerts); lost > 0 {
		logger.Warn("alerts overwritten before they were printed", "lost", lost)
	}
	for _, a := range alerts {
		printAlert(w, a.DocID, a.Malscore, a.Reason, a.Features.Positive(), a.IsolatedFiles)
	}
	return total
}

// printAlert renders one alert on w (the command's data output is stdout;
// logs stay on stderr).
func printAlert(w io.Writer, docID string, malscore int, reason string, features, isolated []string) {
	fmt.Fprintf(w, "ALERT doc=%s malscore=%d reason=%s features=%v isolated=%v\n",
		docID, malscore, reason, features, isolated)
}

// runReplay re-feeds a recorded journal through a fresh detector (no
// listeners) journaling into memory, then diffs the recorded and replayed
// canonical event streams. A clean diff proves the journal deterministically
// reproduces the live run's feature vectors, malscores and alert order.
func runReplay(path string, registry *instrument.Registry, downloadsPath string, depth pipeline.Depth, logger *slog.Logger) error {
	recorded, err := journal.ReadFile(path)
	if err != nil {
		return err
	}
	logger.Info("replaying journal", "path", path, "events", len(recorded))

	var replayedBuf bytes.Buffer
	jw := journal.NewWriter(&replayedBuf, journal.Options{Session: "replay"})
	det, err := detect.New(detect.Config{
		Registry:      registry,
		OS:            winos.NewOS(),
		DownloadsPath: downloadsPath,
		Journal:       jw,
	})
	if err != nil {
		return err
	}

	stats := journal.Replay(recorded, det)
	if err := jw.Flush(); err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	replayed, err := journal.Read(&replayedBuf)
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}

	// The replayed journal holds every alert; the detector's own history
	// keeps only the most recent detect.AlertHistory.
	alerts := 0
	for _, e := range replayed {
		if e.T == journal.TypeAlert && e.Alert != nil {
			printAlert(os.Stdout, e.DocID, e.Alert.Malscore, e.Alert.Reason, e.Alert.Features, e.Alert.Isolated)
			alerts++
		}
	}
	logger.Info("replay complete",
		"notifies", stats.Notifies, "hooks", stats.Hooks,
		"forgets", stats.Forgets, "skipped", stats.Skipped,
		"alerts", alerts)

	if diffs := journal.Diff(recorded, replayed); len(diffs) > 0 {
		for _, d := range diffs {
			logger.Error("replay divergence", "diff", d)
		}
		return fmt.Errorf("replay diverged from recording in %d place(s)", len(diffs))
	}
	routed, err := verifyTriage(recorded, logger)
	if err != nil {
		return err
	}
	deep, err := verifyDeepScan(recorded, depth, logger)
	if err != nil {
		return err
	}
	fmt.Printf("replay verified: %d events deterministic (%d notifies, %d hooks, %d forgets)\n",
		len(journal.CanonStream(recorded)), stats.Notifies, stats.Hooks, stats.Forgets)
	if routed > 0 {
		fmt.Printf("triage verified: %d statically routed document(s) consistent with their verdicts\n", routed)
	}
	if deep > 0 {
		fmt.Printf("deep-scan verified: %d forced-execution record(s) consistent with their verdicts\n", deep)
	}
	return nil
}

// verifyDeepScan cross-checks the recording's forced-execution records:
// every deep-scan event must report at least one explored path (the
// natural path always runs) and belong to a document that reached a
// verdict. Deep-scan events are non-canonical — replay determinism never
// depends on them — so this is a consistency check, not a diff. With
// -depth deep the recording must actually contain such records (every
// opened document gets one at that depth); auto may legitimately have
// none when no document routed uncertain.
func verifyDeepScan(recorded []journal.Event, depth pipeline.Depth, logger *slog.Logger) (int, error) {
	verdicts := make(map[string]bool)
	for _, e := range recorded {
		if e.T == journal.TypeVerdict {
			verdicts[e.DocID] = true
		}
	}
	n, bad := 0, 0
	for _, e := range recorded {
		if e.T != journal.TypeDeepScan || e.DeepScan == nil {
			continue
		}
		n++
		if e.DeepScan.Paths < 1 {
			logger.Error("deep-scan inconsistency", "doc", e.DocID, "problem", "zero explored paths")
			bad++
		}
		if !verdicts[e.DocID] {
			logger.Error("deep-scan inconsistency", "doc", e.DocID, "problem", "no verdict recorded")
			bad++
		}
	}
	if bad > 0 {
		return n, fmt.Errorf("deep-scan records inconsistent in %d place(s)", bad)
	}
	if n == 0 && depth == pipeline.DepthDeep {
		return 0, fmt.Errorf("-depth deep: recording contains no deep-scan records")
	}
	return n, nil
}

// verifyTriage cross-checks the recording's static triage tier against its
// verdicts: a confident-benign route must end in a benign verdict, a
// confident-malicious route in a malicious one, and neither may have
// produced canonical detector events (the routed document never reached a
// reader). Returns how many routed ("benign"/"malicious") documents were
// verified; uncertain routes took the dynamic tier and are covered by the
// canonical-stream diff instead.
func verifyTriage(recorded []journal.Event, logger *slog.Logger) (int, error) {
	verdicts := make(map[string]*journal.Verdict)
	canonicalKeys := make(map[string]bool)
	for _, e := range recorded {
		if e.T == journal.TypeVerdict {
			verdicts[e.DocID] = e.Verdict
			continue
		}
		if e.Canon() != "" && e.Key != "" {
			canonicalKeys[e.Key] = true
		}
	}
	routed, bad := 0, 0
	for _, e := range recorded {
		if e.T != journal.TypeTriage || e.Triage == nil || e.Triage.Route == "uncertain" {
			continue
		}
		routed++
		v, ok := verdicts[e.DocID]
		if !ok {
			logger.Error("triage inconsistency", "doc", e.DocID, "route", e.Triage.Route, "problem", "no verdict recorded")
			bad++
			continue
		}
		wantMalicious := e.Triage.Route == "malicious"
		if v.Malicious != wantMalicious {
			logger.Error("triage inconsistency", "doc", e.DocID, "route", e.Triage.Route, "verdict_malicious", v.Malicious)
			bad++
		}
		if e.Key != "" && canonicalKeys[e.Key] {
			logger.Error("triage inconsistency", "doc", e.DocID, "route", e.Triage.Route,
				"problem", "statically routed key has canonical detector events", "key", e.Key)
			bad++
		}
	}
	if bad > 0 {
		return routed, fmt.Errorf("triage records inconsistent with verdicts in %d place(s)", bad)
	}
	return routed, nil
}
