package pipeline

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
)

// TestWatchdogFlagsWedgedOpen is the acceptance test for the stall
// watchdog: a document deliberately wedged inside the open phase (via
// the openHook test seam) must be flagged with a captured goroutine
// dump and its journal context, while concurrently processed documents
// keep receiving correct verdicts; releasing the wedge lets the
// document finish normally.
func TestWatchdogFlagsWedgedOpen(t *testing.T) {
	var jbuf bytes.Buffer
	jw := journal.NewWriter(&jbuf, journal.Options{Session: "wedge-test"})
	watchdogTuning = obs.WatchdogConfig{
		Deadline: 150 * time.Millisecond,
		Interval: 25 * time.Millisecond,
	}
	sys, err := NewSystem(Options{Seed: 99, Obs: obs.NewRegistry(), Journal: jw})
	watchdogTuning = obs.WatchdogConfig{}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	const wedgedID = "wedged.pdf"
	release := make(chan struct{})
	wedged := make(chan struct{})
	openHook = func(docID string) {
		if docID == wedgedID {
			close(wedged)
			<-release
		}
	}
	defer func() { openHook = nil }()

	g := corpus.NewGenerator(771)
	done := make(chan error, 1)
	go func() {
		_, err := sys.ProcessDocumentContext(t.Context(), wedgedID, g.BenignFormJS().Raw)
		done <- err
	}()
	<-wedged // the doc is now inside the open phase, holding the seam

	// Concurrent documents must be unaffected by the wedge: a malicious
	// sample still convicts, a benign one stays clean.
	mal, ok := g.MaliciousFamily("mal-printf")
	if !ok {
		t.Fatal("family missing")
	}
	v, err := sys.ProcessDocumentContext(t.Context(), mal.ID, mal.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Error("malicious sample not detected while another doc is wedged")
	}
	benign := g.BenignFormJS()
	v, err = sys.ProcessDocumentContext(t.Context(), "benign-during-wedge.pdf", benign.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.Malicious {
		t.Error("benign doc convicted while another doc is wedged")
	}

	// The watchdog's background loop must flag the wedged doc.
	deadline := time.Now().Add(10 * time.Second)
	var rep obs.StallReport
	for {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never flagged the wedged doc; reports: %+v",
				sys.Diagnostics().Watchdog.Reports())
		}
		found := false
		for _, r := range sys.Diagnostics().Watchdog.Reports() {
			if r.DocID == wedgedID {
				rep, found = r, true
			}
		}
		if found {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep.Phase != obs.PhaseOpen {
		t.Errorf("stall phase = %q, want open", rep.Phase)
	}
	if !strings.Contains(rep.Goroutines, "goroutine") {
		t.Error("stall report has no goroutine dump")
	}
	// The journal context fetcher is wired to the writer's recent ring:
	// the report must carry the wedged doc's doc-open event.
	events, ok := rep.Journal.([]journal.Event)
	if !ok || len(events) == 0 {
		t.Fatalf("stall report journal context = %#v, want the doc's events", rep.Journal)
	}
	if events[len(events)-1].T != journal.TypeDocOpen {
		t.Errorf("journal context missing the doc-open event: %+v", events)
	}

	// Releasing the wedge lets the document finish with a normal verdict.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("wedged doc errored after release: %v", err)
	}
	recs := sys.Diagnostics().Flight.Find(wedgedID)
	if len(recs) != 1 {
		t.Fatalf("flight recorder holds %d records for the wedged doc, want 1", len(recs))
	}
	hasOpen := false
	for _, sp := range recs[0].Trace.Spans {
		if sp.Phase == obs.PhaseOpen {
			hasOpen = true
		}
	}
	if !hasOpen {
		t.Errorf("wedged doc's trace lost its open span: %+v", recs[0].Trace.Spans)
	}

	st := sys.Stats()
	if st.Watchdog == nil || st.Watchdog.Stalls == 0 {
		t.Errorf("Stats.Watchdog = %+v, want the stall counted", st.Watchdog)
	}
}

// TestDiagnosticsThroughPipeline: every processed document feeds the
// doc-latency histogram and flight recorder, errored submissions are
// counted and tail-retained with their error text, and System.Stats
// carries the diagnostics sections.
func TestDiagnosticsThroughPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	sys, err := NewSystem(Options{Seed: 99, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	g := corpus.NewGenerator(772)
	if _, err := sys.ProcessDocumentContext(t.Context(), "ok.pdf", g.BenignFormJS().Raw); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessDocumentContext(t.Context(), "garbage.pdf", []byte("not a pdf at all")); err == nil {
		t.Fatal("garbage document processed without error")
	}

	d := sys.Diagnostics()
	recs := d.Flight.Find("garbage.pdf")
	if len(recs) != 1 {
		t.Fatalf("errored doc not in flight recorder: %d records", len(recs))
	}
	retained := strings.Join(recs[0].Retained, ",")
	if !strings.Contains(retained, obs.RetainErrored) {
		t.Errorf("errored doc retained as %q, want errored", retained)
	}
	if recs[0].Trace.Error == "" || recs[0].Trace.Outcome != obs.OutcomeErrored {
		t.Errorf("errored trace = %+v, want error text and errored outcome", recs[0].Trace)
	}

	st := sys.Stats()
	if st.Flight == nil || st.Flight.Recorded != 2 {
		t.Errorf("Stats.Flight = %+v, want 2 recorded", st.Flight)
	}
	snap := reg.Snapshot()
	if n := snap.Histograms[obs.MetricDocSeconds].Count; n != 2 {
		t.Errorf("doc-latency observations = %d, want 2 (one per submission)", n)
	}
	if n := snap.Counters[obs.MetricDocsErrored]; n != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricDocsErrored, n)
	}
	if st.Watchdog == nil || st.Watchdog.DeadlineSeconds <= 0 {
		t.Errorf("Stats.Watchdog = %+v", st.Watchdog)
	}
}

// TestDeepScanHistogramWideBuckets: the deep-scan open histogram must be
// registered with the widened bounds, not the default 10s-top latency
// buckets, whichever code path touches it first.
func TestDeepScanHistogramWideBuckets(t *testing.T) {
	reg := obs.NewRegistry()
	sys, err := NewSystem(Options{Seed: 99, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	// Preregistration pinned the bounds at construction; a synthetic 78s
	// observation must land in a finite bucket.
	reg.Histogram(obs.MetricDeepScanSeconds, nil).Observe(78)
	snap := reg.Snapshot().Histograms[obs.MetricDeepScanSeconds]
	var maxBound float64
	finite := false
	for _, b := range snap.Buckets {
		if b.UpperBound > maxBound {
			maxBound = b.UpperBound
		}
		if b.UpperBound < 300 && b.UpperBound >= 78 && b.Count == 1 {
			finite = true
		}
	}
	if maxBound <= 10 {
		t.Fatalf("deep-scan histogram registered with narrow bounds (top %v)", maxBound)
	}
	if !finite {
		t.Errorf("78s deep scan not finite-bucketed: %+v", snap.Buckets)
	}
}
