package main

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"pdfshield/internal/detect"
	"pdfshield/internal/instrument"
	"pdfshield/internal/soapsrv"
)

// raiseAlerts convicts n fresh documents, numbered from first, with one
// fake message each (a foreign detector ID claiming a known key).
func raiseAlerts(t *testing.T, reg *instrument.Registry, det *detect.Detector, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		key := fmt.Sprintf("k%04d", i)
		if err := reg.Register(instrument.DocRecord{DocID: fmt.Sprintf("doc-%04d", i), InstrKey: key}); err != nil {
			t.Fatal(err)
		}
		_ = det.Notify(soapsrv.Notify{Event: soapsrv.EventEnter, Key: "other:" + key, PID: 1}, "test")
		det.ForgetDoc(key)
	}
}

// TestPollPrintsEveryAlert: the daemon's poll loop keeps printing after
// the detector's alert history has filled, and a burst larger than the
// history between two polls is reported as lost instead of silently
// ending the output.
func TestPollPrintsEveryAlert(t *testing.T) {
	reg := instrument.NewRegistry("det")
	det, err := detect.New(detect.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var out, logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))

	const perPoll, polls = 100, 8 // 800 alerts, over three times the history
	seen := 0
	for p := 0; p < polls; p++ {
		raiseAlerts(t, reg, det, p*perPoll, perPoll)
		seen = printNewAlerts(&out, det, seen, logger)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != perPoll*polls {
		t.Fatalf("printed %d alerts, want %d", len(lines), perPoll*polls)
	}
	for i, l := range lines {
		if want := fmt.Sprintf("ALERT doc=doc-%04d ", i); !strings.HasPrefix(l, want) {
			t.Fatalf("line %d = %q, want prefix %q", i, l, want)
		}
	}
	if logs.Len() != 0 {
		t.Fatalf("unexpected log output: %s", logs.String())
	}

	const extra = 5
	out.Reset()
	raiseAlerts(t, reg, det, perPoll*polls, detect.AlertHistory+extra)
	seen = printNewAlerts(&out, det, seen, logger)
	if want := perPoll*polls + detect.AlertHistory + extra; seen != want {
		t.Errorf("total = %d, want %d", seen, want)
	}
	if n := strings.Count(out.String(), "\n"); n != detect.AlertHistory {
		t.Errorf("burst printed %d alerts, want the %d retained", n, detect.AlertHistory)
	}
	if !strings.Contains(logs.String(), fmt.Sprintf("lost=%d", extra)) {
		t.Errorf("burst loss not logged: %q", logs.String())
	}
}
