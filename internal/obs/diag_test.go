package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFlightRecorderRetention drives the two-ring retention contract:
// every completion lands in the recent ring, interesting completions
// (errored, deep-scanned, quarantined, slow) are additionally
// tail-sampled so ordinary traffic cannot flush them, and the retention
// counters tick per reason.
func TestFlightRecorderRetention(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(FlightConfig{Recent: 4, Tail: 8, SlowThreshold: time.Second, Obs: reg})

	f.Record(&Trace{DocID: "doc-errored", Outcome: OutcomeErrored, Error: "hostile parse"}, 10*time.Millisecond)
	f.Record(&Trace{DocID: "doc-deep", Outcome: OutcomeBenign, Depth: "deep", DeepPaths: 3}, 2*time.Second)
	f.Record(&Trace{DocID: "doc-mal", Outcome: OutcomeMalicious}, 20*time.Millisecond)
	for i := 0; i < 4; i++ {
		f.Record(&Trace{DocID: "doc-ordinary", Outcome: OutcomeBenign}, time.Millisecond)
	}

	// The recent ring (size 4) has been fully overwritten by ordinary
	// traffic; the tail ring still holds every interesting trace.
	recent := f.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent ring holds %d records, want 4", len(recent))
	}
	for _, rec := range recent {
		if rec.Trace.DocID != "doc-ordinary" {
			t.Errorf("recent ring kept %q after 4 ordinary completions", rec.Trace.DocID)
		}
	}
	tail := f.Tail(0)
	if len(tail) != 3 {
		t.Fatalf("tail ring holds %d records, want 3: %+v", len(tail), tail)
	}
	// Newest-first ordering.
	if tail[0].Trace.DocID != "doc-mal" || tail[2].Trace.DocID != "doc-errored" {
		t.Errorf("tail not newest-first: %q ... %q", tail[0].Trace.DocID, tail[2].Trace.DocID)
	}

	// Retention reasons.
	wantReasons := map[string][]string{
		"doc-errored": {RetainErrored},
		"doc-deep":    {RetainDeepScan, RetainSlow},
		"doc-mal":     {RetainQuarantined},
	}
	for doc, want := range wantReasons {
		recs := f.Find(doc)
		if len(recs) != 1 {
			t.Fatalf("Find(%q) = %d records, want 1", doc, len(recs))
		}
		got := recs[0].Retained
		if len(got) != len(want) {
			t.Fatalf("Find(%q).Retained = %v, want %v", doc, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Find(%q).Retained = %v, want %v", doc, got, want)
			}
		}
	}

	// Slowest ranks by total latency across both rings, deduplicated.
	slowest := f.Slowest(1)
	if len(slowest) != 1 || slowest[0].Trace.DocID != "doc-deep" {
		t.Errorf("Slowest(1) = %+v, want the 2s deep-scan trace", slowest)
	}

	st := f.Stats()
	if st.Recorded != 7 || st.RecentLen != 4 || st.RecentCap != 4 || st.TailLen != 3 || st.TailCap != 8 {
		t.Errorf("Stats = %+v, want recorded=7 recent=4/4 tail=3/8", st)
	}

	snap := reg.Snapshot()
	for reason, want := range map[string]uint64{
		RetainErrored:     1,
		RetainDeepScan:    1,
		RetainSlow:        1,
		RetainQuarantined: 1,
		RetainCrashed:     0, // preregistered at zero
	} {
		name := Series(MetricFlightRetained, "reason", reason)
		got, ok := snap.Counters[name]
		if !ok {
			t.Errorf("retention counter %s not registered", name)
		} else if got != want {
			t.Errorf("retention counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestFlightRecorderDisabledAndNil: negative ring sizes disable
// retention without disabling recording, and every method is nil-safe.
func TestFlightRecorderDisabledAndNil(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Recent: -1, Tail: -1})
	f.Record(&Trace{DocID: "x", Outcome: OutcomeErrored}, time.Second)
	if got := f.Recent(0); len(got) != 0 {
		t.Errorf("disabled recent ring returned %d records", len(got))
	}
	if got := f.Tail(0); len(got) != 0 {
		t.Errorf("disabled tail ring returned %d records", len(got))
	}
	if st := f.Stats(); st.Recorded != 1 {
		t.Errorf("Recorded = %d, want 1 (recording continues with rings off)", st.Recorded)
	}

	var nf *FlightRecorder
	nf.Record(&Trace{DocID: "y"}, time.Second)
	if nf.Recent(1) != nil || nf.Tail(1) != nil || nf.Find("y") != nil || nf.Slowest(1) != nil {
		t.Error("nil recorder returned records")
	}
	if st := nf.Stats(); st != (FlightStats{}) {
		t.Errorf("nil recorder Stats = %+v, want zero", st)
	}
}

// TestWatchdogScan drives the stall watchdog deterministically on a fake
// clock: only docs past the deadline in a watched phase are flagged, each
// at most once per phase, with a goroutine dump and the doc's journal
// context captured; a phase transition re-arms the clock.
func TestWatchdogScan(t *testing.T) {
	reg := NewRegistry()
	w := NewWatchdog(WatchdogConfig{
		Deadline: 10 * time.Second,
		Interval: time.Hour, // background loop stays out of the test's way
		Context:  func(docID string) any { return "journal-of-" + docID },
		Obs:      reg,
	})
	defer w.Stop()
	now := time.Unix(9000, 0)
	w.nowFn = func() time.Time { return now }

	stuck := w.Begin("doc-stuck")
	stuck.Phase(PhaseOpen)
	frontend := w.Begin("doc-frontend")
	frontend.Phase(PhaseParse) // not a watched phase
	finished := w.Begin("doc-finished")
	finished.Phase(PhaseOpen)
	finished.Done()

	if got := w.Inflight(); got != 2 {
		t.Errorf("Inflight = %d, want 2 (Done releases)", got)
	}

	now = now.Add(11 * time.Second)
	w.Scan()
	reports := w.Reports()
	if len(reports) != 1 {
		t.Fatalf("got %d stall reports, want 1: %+v", len(reports), reports)
	}
	rep := reports[0]
	if rep.DocID != "doc-stuck" || rep.Phase != PhaseOpen {
		t.Errorf("report = %s in %q, want doc-stuck in open", rep.DocID, rep.Phase)
	}
	if rep.Stalled < 11*time.Second {
		t.Errorf("Stalled = %v, want >= 11s", rep.Stalled)
	}
	if !strings.Contains(rep.Goroutines, "goroutine") {
		t.Error("stall report carries no goroutine dump")
	}
	if rep.Journal != "journal-of-doc-stuck" {
		t.Errorf("Journal context = %v, want the Context fetcher's value", rep.Journal)
	}

	// A second scan must not re-report the same stall.
	w.Scan()
	if got := w.Stalls(); got != 1 {
		t.Errorf("Stalls = %d after rescan, want 1 (one report per phase)", got)
	}

	// Entering a new watched phase re-arms the deadline; exceeding it
	// again produces a second report.
	stuck.Phase(PhaseDetect)
	w.Scan()
	if got := w.Stalls(); got != 1 {
		t.Errorf("fresh phase flagged immediately: stalls = %d", got)
	}
	now = now.Add(11 * time.Second)
	w.Scan()
	reports = w.Reports()
	if len(reports) != 2 || reports[0].Phase != PhaseDetect {
		t.Fatalf("after detect-phase stall: %+v", reports)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[Series(MetricWatchdogStalls, "phase", PhaseOpen)]; got != 1 {
		t.Errorf("open stall counter = %d, want 1", got)
	}
	if got := snap.Counters[Series(MetricWatchdogStalls, "phase", PhaseDetect)]; got != 1 {
		t.Errorf("detect stall counter = %d, want 1", got)
	}

	st := w.Stats()
	if st.Stalls != 2 || st.DeadlineSeconds != 10 {
		t.Errorf("Stats = %+v, want 2 stalls / 10s deadline", st)
	}

	// Nil-safety: the unwatched pipeline configuration.
	var nw *Watchdog
	d := nw.Begin("x")
	d.Phase(PhaseOpen)
	d.Done()
	nw.Scan()
	nw.Stop()
	if nw.Reports() != nil || nw.Stalls() != 0 {
		t.Error("nil watchdog produced reports")
	}
}

// TestDeepScanBucketsCoverTail is the regression test for the widened
// deep-scan histogram: a 78s forced-execution open (the paper's ~78x
// overhead on a ~1s standard open) must land in a finite bucket instead
// of collapsing into +Inf as it did with the default 10s-top bounds.
func TestDeepScanBucketsCoverTail(t *testing.T) {
	if top := LatencyBuckets[len(LatencyBuckets)-1]; top != 10 {
		t.Fatalf("default top bucket moved to %v; update DeepScanBuckets reasoning", top)
	}
	if top := DeepScanBuckets[len(DeepScanBuckets)-1]; top <= 10 {
		t.Fatalf("DeepScanBuckets top bound %v does not extend past the default range", top)
	}
	for i := 1; i < len(DeepScanBuckets); i++ {
		if DeepScanBuckets[i] <= DeepScanBuckets[i-1] {
			t.Fatalf("DeepScanBuckets not ascending at %d: %v", i, DeepScanBuckets)
		}
	}

	reg := NewRegistry()
	h := reg.Histogram(MetricDeepScanSeconds, DeepScanBuckets)
	h.Observe(78)

	snap := reg.Snapshot().Histograms[MetricDeepScanSeconds]
	// Cumulative counts: everything <= 60 must be 0, the 120 bucket 1.
	for _, b := range snap.Buckets {
		switch {
		case b.UpperBound <= 60 && b.Count != 0:
			t.Errorf("bucket le=%v count=%d, want 0 for a 78s observation", b.UpperBound, b.Count)
		case b.UpperBound >= 120 && b.Count != 1:
			t.Errorf("bucket le=%v count=%d, want 1 (observation must be finite-bucketed)", b.UpperBound, b.Count)
		}
	}
}

// TestPrometheusLabelEscaping pins the exposition-format escaping of
// hostile label values: quotes, backslashes and newlines must render in
// their escaped form and never break the one-series-per-line framing.
// Document IDs are attacker-chosen strings, so this is load-bearing.
func TestPrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	hostile := "evil\"doc\\with\nnewline"
	reg.Inc(Series("pdfshield_test_total", "doc", hostile))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	want := `pdfshield_test_total{doc="evil\"doc\\with\nnewline"} 1`
	if !strings.Contains(text, want+"\n") {
		t.Errorf("exposition missing escaped series %q:\n%s", want, text)
	}
	// Framing: every non-empty line is either a comment or name{...} value.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.LastIndexByte(line, ' ') <= 0 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	// And the value survives a round-trip through the parser helpers.
	if got := LabelValue(Series("m", "doc", hostile), "doc"); got != hostile {
		t.Errorf("LabelValue round-trip = %q, want %q", got, hostile)
	}
}

// TestBuildInfoGauge: the conventional build-identity series renders with
// constant value 1 and the stamped version labels.
func TestBuildInfoGauge(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	snap := reg.Snapshot()
	found := ""
	for name, v := range snap.Gauges {
		base, _ := SplitSeries(name)
		if base != MetricBuildInfo {
			continue
		}
		found = name
		if v != 1 {
			t.Errorf("%s = %v, want constant 1", name, v)
		}
	}
	if found == "" {
		t.Fatalf("no %s series in snapshot", MetricBuildInfo)
	}
	if got := LabelValue(found, "version"); got != Version {
		t.Errorf("version label = %q, want %q", got, Version)
	}
	if got := LabelValue(found, "go_version"); !strings.HasPrefix(got, "go") {
		t.Errorf("go_version label = %q", got)
	}
	RegisterBuildInfo(nil) // nil-safe
}

// TestDebugEndpoints mounts the live debug surface and exercises every
// endpoint over HTTP, including the per-document trace filter.
func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	d := NewDiagnostics(reg, WatchdogConfig{Interval: time.Hour})
	defer d.Close()

	tr := &Trace{DocID: "doc-q", Outcome: OutcomeMalicious}
	tr.AddSpan(PhaseParse, 0, time.Millisecond)
	tr.AddSpan(PhaseOpen, time.Millisecond, 5*time.Millisecond)
	d.Flight.Record(tr, 6*time.Millisecond)

	mux := http.NewServeMux()
	d.RegisterDebug(mux, "/v1/debug")
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
		}
		return out
	}

	traces := get("/v1/debug/traces")
	if tail, ok := traces["tail"].([]any); !ok || len(tail) != 1 {
		t.Errorf("/traces tail = %v, want the quarantined record", traces["tail"])
	}

	byDoc := get("/v1/debug/traces?doc=doc-q")
	recs, _ := byDoc["traces"].([]any)
	if len(recs) != 1 {
		t.Fatalf("/traces?doc=doc-q = %v", byDoc)
	}
	rec, _ := recs[0].(map[string]any)
	trj, _ := rec["trace"].(map[string]any)
	spans, _ := trj["spans"].([]any)
	if len(spans) != 2 {
		t.Errorf("filtered trace lost its phase timeline: %v", trj)
	}

	slow := get("/v1/debug/slow")
	if s, ok := slow["slowest"].([]any); !ok || len(s) != 1 {
		t.Errorf("/slow = %v", slow)
	}

	stalls := get("/v1/debug/stalls")
	if _, ok := stalls["stats"].(map[string]any); !ok {
		t.Errorf("/stalls = %v", stalls)
	}

	// Nil diagnostics mount nothing and must not panic.
	var nd *Diagnostics
	nd.RegisterDebug(http.NewServeMux(), "/v1/debug")
	nd.Close()
}

// TestPprofOptIn: the pprof handlers exist only after RegisterPprof —
// a server built without the opt-in must answer 404 on /debug/pprof/.
func TestPprofOptIn(t *testing.T) {
	reg := NewRegistry()
	d := NewDiagnostics(reg, WatchdogConfig{Interval: time.Hour})
	defer d.Close()

	off := http.NewServeMux()
	d.RegisterDebug(off, "/v1/debug")
	tsOff := httptest.NewServer(off)
	defer tsOff.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/pprof/symbol"} {
		resp, err := http.Get(tsOff.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("pprof disabled but GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	on := http.NewServeMux()
	RegisterPprof(on)
	tsOn := httptest.NewServer(on)
	defer tsOn.Close()
	resp, err := http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof enabled: GET /debug/pprof/ = %d", resp.StatusCode)
	}
}

// TestWriteDump: the SIGQUIT dump works on a nil handle (build identity
// and goroutines only) and includes the flight and stall sections when
// diagnostics are live.
func TestWriteDump(t *testing.T) {
	var sb strings.Builder
	var nd *Diagnostics
	nd.WriteDump(&sb)
	out := sb.String()
	for _, want := range []string{"pdfshield diagnostic dump", "version:", "--- goroutines ---", "goroutine"} {
		if !strings.Contains(out, want) {
			t.Errorf("nil dump missing %q", want)
		}
	}

	reg := NewRegistry()
	d := NewDiagnostics(reg, WatchdogConfig{Interval: time.Hour})
	defer d.Close()
	d.Flight.Record(&Trace{DocID: "doc-dump", Outcome: OutcomeErrored, Error: "x"}, 3*time.Second)
	sb.Reset()
	d.WriteDump(&sb)
	out = sb.String()
	for _, want := range []string{"--- flight recorder ---", "doc-dump"} {
		if !strings.Contains(out, want) {
			t.Errorf("live dump missing %q\n%s", want, out)
		}
	}
}
