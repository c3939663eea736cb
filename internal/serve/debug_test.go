package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
)

// metricValue extracts the value of one exact series from a Prometheus
// text exposition (NaN-free registry, so 0 means absent-or-zero; use
// metricPresent to distinguish).
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(line[len(series)+1:], 64)
		if err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		return v
	}
	return 0
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestDebugSurfaceEndToEnd is the acceptance test for the daemon's live
// debug surface: a deep-scanned document and an errored document
// submitted through POST /v1/scan are retrievable afterwards from
// /v1/debug/traces with their phase timelines and retention reasons,
// /v1/debug/slow ranks the deep scan first, and /v1/metrics counts the
// errored submission.
func TestDebugSurfaceEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Workers:  2,
		Pipeline: pipeline.Options{Obs: reg, Depth: pipeline.DepthDeep},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, before := getBody(t, ts.URL+"/v1/metrics")
	if got := metricValue(t, string(before), obs.MetricDocsErrored); got != 0 {
		t.Fatalf("%s = %v before any submission, want 0", obs.MetricDocsErrored, got)
	}
	if !strings.Contains(string(before), obs.MetricBuildInfo+"{") {
		t.Error("/v1/metrics missing the build-info gauge")
	}

	// Induced load: one deep-scanned document, one hostile document that
	// errors in the front-end.
	g := corpus.NewGenerator(4242)
	resp, body := postScan(t, ts.URL, g.BenignFormJS().Raw, map[string]string{HeaderDocID: "doc-deep"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep doc: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Depth != "deep" || sr.DeepScanPaths == 0 {
		t.Fatalf("submission did not deep-scan: depth=%q paths=%d", sr.Depth, sr.DeepScanPaths)
	}
	resp, _ = postScan(t, ts.URL, []byte("%PDF-not really, hostile bytes"), map[string]string{HeaderDocID: "doc-broken"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("hostile doc: status %d, want 422", resp.StatusCode)
	}

	// The deep-scanned document comes back from /v1/debug/traces with its
	// full phase timeline and the deep-scan retention reason.
	status, body := getBody(t, ts.URL+"/v1/debug/traces?doc=doc-deep")
	if status != http.StatusOK {
		t.Fatalf("/v1/debug/traces: status %d", status)
	}
	var byDoc struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(body, &byDoc); err != nil {
		t.Fatalf("traces JSON: %v\n%s", err, body)
	}
	if len(byDoc.Traces) != 1 {
		t.Fatalf("doc-deep: %d retained records, want 1", len(byDoc.Traces))
	}
	rec := byDoc.Traces[0]
	if strings.Join(rec.Retained, ",") == "" || !strings.Contains(strings.Join(rec.Retained, ","), obs.RetainDeepScan) {
		t.Errorf("doc-deep retained as %v, want deep-scan", rec.Retained)
	}
	phases := make(map[string]bool)
	for _, sp := range rec.Trace.Spans {
		phases[sp.Phase] = true
	}
	for _, want := range []string{obs.PhaseParse, obs.PhaseAnalyze, obs.PhaseInstrument, obs.PhaseOpen, obs.PhaseDetect} {
		if !phases[want] {
			t.Errorf("doc-deep timeline missing the %s phase: %+v", want, rec.Trace.Spans)
		}
	}

	// The errored document is tail-retained with its error text.
	_, body = getBody(t, ts.URL+"/v1/debug/traces?doc=doc-broken")
	byDoc.Traces = nil
	if err := json.Unmarshal(body, &byDoc); err != nil {
		t.Fatal(err)
	}
	if len(byDoc.Traces) != 1 || !strings.Contains(strings.Join(byDoc.Traces[0].Retained, ","), obs.RetainErrored) {
		t.Fatalf("doc-broken not retained as errored: %+v", byDoc.Traces)
	}
	if byDoc.Traces[0].Trace.Error == "" {
		t.Error("errored trace lost its error text")
	}

	// The slowest retained trace is the deep scan, not the front-end
	// failure.
	_, body = getBody(t, ts.URL+"/v1/debug/slow")
	var slow struct {
		Slowest []obs.TraceRecord `json:"slowest"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("slow JSON: %v\n%s", err, body)
	}
	if len(slow.Slowest) == 0 || slow.Slowest[0].Trace.DocID != "doc-deep" {
		t.Errorf("/v1/debug/slow does not rank doc-deep first: %s", body)
	}

	// /v1/metrics counts the errored submission.
	_, after := getBody(t, ts.URL+"/v1/metrics")
	if got := metricValue(t, string(after), obs.MetricDocsErrored); got != 1 {
		t.Errorf("%s = %v after doc-broken, want 1", obs.MetricDocsErrored, got)
	}
	if got := metricValue(t, string(after),
		obs.Series(obs.MetricFlightRetained, "reason", obs.RetainErrored)); got != 1 {
		t.Errorf("flight retention counter = %v, want 1", got)
	}

	// The rest of the debug surface answers on the daemon's own mux.
	for _, path := range []string{"/v1/debug/traces", "/v1/debug/slow", "/v1/debug/stalls"} {
		status, body := getBody(t, ts.URL+path)
		if status != http.StatusOK || !json.Valid(body) {
			t.Errorf("GET %s: status %d, valid JSON %v", path, status, json.Valid(body))
		}
	}
}

// TestServePprofOptIn: the daemon mounts net/http/pprof only behind the
// explicit -pprof opt-in; without it the conventional paths answer 404.
func TestServePprofOptIn(t *testing.T) {
	off := newTestServer(t, Config{Workers: 1})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile"} {
		status, _ := getBody(t, tsOff.URL+path)
		if status != http.StatusNotFound {
			t.Errorf("pprof off: GET %s = %d, want 404", path, status)
		}
	}

	on := newTestServer(t, Config{Workers: 1, Pprof: true})
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	status, body := getBody(t, tsOn.URL+"/debug/pprof/")
	if status != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof on: GET /debug/pprof/ = %d", status)
	}
}
