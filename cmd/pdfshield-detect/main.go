// Command pdfshield-detect verifies a recorded forensic journal: it
// re-feeds the journal through a fresh runtime detector state machine — no
// listeners, no live readers — and checks that the replay reproduces the
// recorded canonical event stream (feature triggers, malscores, alert
// ordering) byte-for-byte.
//
// Usage:
//
//	pdfshield-detect -replay events.jsonl
//	                 [-depth static|standard|deep|auto]
//	                 [-log-level info] [-log-json]
//
// The journal is the only input: the fresh detector's registry is rebuilt
// from the recording, whose context events carry each document's key and
// static features (see detect.Replay). When the recording contains static
// triage routes, each routed document is also cross-checked: a
// confident-benign route must carry a benign verdict, a
// confident-malicious route a malicious one, and neither may have
// detector events (the routed document never reached a reader). Alerts
// raised during the replay print to stdout; any divergence is reported
// and the command exits non-zero.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"pdfshield/internal/cli"
	"pdfshield/internal/detect"
	"pdfshield/internal/journal"
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
	replayPath := flag.String("replay", "", "journal to replay through a fresh detector and verify (required)")
	depthFlag := flag.String("depth", "", "scan depth the recording was made at: static|standard|deep|auto (replay cross-checks deep-scan records; -depth deep requires them)")
	logOpts := cli.RegisterLogFlags(flag.CommandLine)
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

	if *replayPath == "" {
		flag.Usage()
		return fmt.Errorf("-replay is required")
	}
	return runReplay(os.Stdout, *replayPath, depth, logger)
}

// printAlert renders one alert on w (the command's data output is stdout;
// logs stay on stderr).
func printAlert(w io.Writer, docID string, malscore int, reason string, features, isolated []string) {
	fmt.Fprintf(w, "ALERT doc=%s malscore=%d reason=%s features=%v isolated=%v\n",
		docID, malscore, reason, features, isolated)
}

// runReplay re-feeds a recorded journal through a fresh detector
// journaling into memory, then diffs the recorded and replayed
// canonical event streams. A clean diff proves the journal deterministically
// reproduces the live run's feature vectors, malscores and alert order.
// Alerts and the verification summary print on out.
func runReplay(out io.Writer, path string, depth pipeline.Depth, logger *slog.Logger) error {
	recorded, err := journal.ReadFile(path)
	if err != nil {
		return err
	}
	logger.Info("replaying journal", "path", path, "events", len(recorded))

	var replayedBuf bytes.Buffer
	jw := journal.NewWriter(&replayedBuf, journal.Options{Session: "replay"})
	_, stats, err := detect.Replay(recorded, detect.Config{OS: winos.NewOS(), Journal: jw})
	if err != nil {
		return err
	}
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
			printAlert(out, e.DocID, e.Alert.Malscore, e.Alert.Reason, e.Alert.Features, e.Alert.Isolated)
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
	fmt.Fprintf(out, "replay verified: %d events deterministic (%d notifies, %d hooks, %d forgets)\n",
		len(journal.CanonStream(recorded)), stats.Notifies, stats.Hooks, stats.Forgets)
	if routed > 0 {
		fmt.Fprintf(out, "triage verified: %d statically routed document(s) consistent with their verdicts\n", routed)
	}
	if deep > 0 {
		fmt.Fprintf(out, "deep-scan verified: %d forced-execution record(s) consistent with their verdicts\n", deep)
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
