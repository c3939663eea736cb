package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
)

// newTestServer builds a daemon on a private registry (metrics isolation)
// and tears it down with the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Pipeline.Obs == nil {
		cfg.Pipeline.Obs = obs.NewRegistry()
	}
	if cfg.Pipeline.Seed == 0 {
		cfg.Pipeline.Seed = 4242
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func postScan(t *testing.T, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/scan", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /scan: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestScanVerdict drives the full pipeline through POST /scan: a benign
// text document (no Javascript), a JS-bearing benign document and its
// byte-identical resubmission, then the degenerate submissions (empty
// body, oversized body). The daemon runs with its front-end cache on, as
// the CLI does by default.
func TestScanVerdict(t *testing.T) {
	s := newTestServer(t, Config{
		Pipeline:    pipeline.Options{Cache: &cache.Config{}},
		Workers:     2,
		MaxDocBytes: 1 << 20,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := corpus.NewGenerator(4242)
	text := g.BenignText(8 << 10)
	resp, body := postScan(t, ts.URL, text.Raw, map[string]string{HeaderDocID: "doc-text"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text doc: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("verdict JSON: %v", err)
	}
	if sr.DocID != "doc-text" {
		t.Errorf("doc_id %q, want header value doc-text", sr.DocID)
	}
	if want := instrument.ContentHash(text.Raw); sr.ContentHash != want {
		t.Errorf("content_hash %q != ContentHash %q", sr.ContentHash, want)
	}
	if sr.Malicious || !sr.NoJS {
		t.Errorf("text doc: malicious=%v no_javascript=%v, want benign no-JS", sr.Malicious, sr.NoJS)
	}

	js := g.BenignFormJS()
	resp, body = postScan(t, ts.URL, js.Raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("js doc: status %d, body %s", resp.StatusCode, body)
	}
	sr = ScanResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("verdict JSON: %v", err)
	}
	if sr.Malicious {
		t.Errorf("benign form JS flagged malicious: %+v", sr)
	}
	if sr.NoJS {
		t.Error("JS-bearing doc reported no_javascript")
	}
	if len(sr.Features) == 0 {
		t.Error("JS-bearing doc verdict missing the feature vector")
	}
	if sr.DocID == "" || sr.ContentHash == "" {
		t.Error("generated doc_id/content_hash missing")
	}

	// Resubmitting the same JS-bearing bytes is served from the front-end
	// cache with the same verdict; without the cache the registry's
	// no-duplicate-instrumentation rule would fail it.
	first := sr
	resp, body = postScan(t, ts.URL, js.Raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmitted js doc: status %d, body %s", resp.StatusCode, body)
	}
	sr = ScanResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("verdict JSON: %v", err)
	}
	if first.Cache != "miss" || sr.Cache != "hit" {
		t.Errorf("cache annotations %q then %q, want miss then hit", first.Cache, sr.Cache)
	}
	if sr.Malicious != first.Malicious || sr.NoJS != first.NoJS || sr.Malscore != first.Malscore ||
		!slices.Equal(sr.Features, first.Features) {
		t.Errorf("resubmission verdict %+v differs from first %+v", sr, first)
	}

	// Degenerate submissions.
	resp, _ = postScan(t, ts.URL, nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postScan(t, ts.URL, make([]byte, 2<<20), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestMaliciousVerdict: a malicious sample must come back flagged with
// its alert fields populated.
func TestMaliciousVerdict(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := corpus.NewGenerator(4242)
	mal := g.Malicious()
	resp, body := postScan(t, ts.URL, mal.Raw, map[string]string{HeaderDocID: mal.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malicious doc: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("verdict JSON: %v", err)
	}
	if !sr.Malicious {
		t.Fatalf("malicious sample %s not flagged: %+v", mal.ID, sr)
	}
	if sr.AlertReason == "" || sr.Malscore == 0 {
		t.Errorf("alert fields missing: reason=%q malscore=%d", sr.AlertReason, sr.Malscore)
	}
}

// TestQueueSaturation: with one blocked worker and a depth-1 queue, the
// third concurrent submission must be rejected 429 with a Retry-After
// hint, and the admitted two must still complete once the worker unblocks.
func TestQueueSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Pipeline:   pipeline.Options{Obs: reg, Seed: 4242},
		Workers:    1,
		QueueDepth: 1,
	})
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.process = func(ctx context.Context, w *pipeline.Worker, doc pipeline.BatchDoc) (*pipeline.Verdict, error) {
		entered <- struct{}{}
		<-release
		return &pipeline.Verdict{DocID: doc.ID}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := []byte("%PDF-1.5 saturation probe")
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/scan", "application/pdf", bytes.NewReader(doc))
			if err != nil {
				results <- -1
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// Wait until the worker is mid-document, then until the queue holds
	// the second admitted job.
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second submission never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postScan(t, ts.URL, doc, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("429 body %s: want JSON error", body)
	}
	if er.RetryAfterSec != ra {
		t.Errorf("retry_after_sec %d != header %d", er.RetryAfterSec, ra)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted submission %d finished with status %d, want 200", i, code)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters[obs.Series(obs.MetricServeRejected, "reason", "queue")]; got != 1 {
		t.Errorf("queue rejection counter = %d, want 1", got)
	}
	if got := snap.Counters[obs.MetricServeAccepted]; got != 2 {
		t.Errorf("accepted counter = %d, want 2", got)
	}
}

// TestTenantRateLimit: one tenant over its bucket gets 429 ratelimit with
// a retry hint; a different tenant is admitted untouched.
func TestTenantRateLimit(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Pipeline:    pipeline.Options{Obs: reg, Seed: 4242},
		Workers:     1,
		TenantRate:  1,
		TenantBurst: 1,
		Now:         clk.now,
	})
	s.process = func(ctx context.Context, w *pipeline.Worker, doc pipeline.BatchDoc) (*pipeline.Verdict, error) {
		return &pipeline.Verdict{DocID: doc.ID}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := []byte("%PDF-1.5 tenant probe")
	resp, _ := postScan(t, ts.URL, doc, map[string]string{HeaderTenant: "hot"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot tenant first submission: status %d", resp.StatusCode)
	}
	resp, body := postScan(t, ts.URL, doc, map[string]string{HeaderTenant: "hot"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot tenant second submission: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 missing Retry-After")
	}
	resp, _ = postScan(t, ts.URL, doc, map[string]string{HeaderTenant: "cold"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cold tenant starved by hot tenant: status %d", resp.StatusCode)
	}
	if got := reg.Snapshot().Counters[obs.Series(obs.MetricServeRejected, "reason", "ratelimit")]; got != 1 {
		t.Errorf("ratelimit rejection counter = %d, want 1", got)
	}
}

// TestDrainCompletesInFlight: Shutdown while a document is mid-scan must
// wait for that document's verdict to be written before returning, and
// the submitter must receive its 200.
func TestDrainCompletesInFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DrainTimeout: 10 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.process = func(ctx context.Context, w *pipeline.Worker, doc pipeline.BatchDoc) (*pipeline.Verdict, error) {
		close(entered)
		<-release
		return &pipeline.Verdict{DocID: doc.ID}, nil
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+s.Addr()+"/v1/scan", "application/pdf", bytes.NewReader([]byte("%PDF-1.5 drain probe")))
		if err != nil {
			status <- -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Shutdown must be blocked on the in-flight document, not returning
	// early and abandoning it.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a document was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := <-status; code != http.StatusOK {
		t.Errorf("in-flight submission finished with status %d, want 200", code)
	}
}

// TestDrainingRejects: once draining, new submissions answer 503 and
// /healthz flips to 503 so load balancers rotate the node out.
func TestDrainingRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.draining.Store(true)

	resp, body := postScan(t, ts.URL, []byte("%PDF-1.5"), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining scan: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hb, _ := io.ReadAll(hr.Body)
	_ = hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503 (body %s)", hr.StatusCode, hb)
	}
}

// TestHealthz: a serving daemon answers 200 with its queue shape.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 7})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, body %s", resp.StatusCode, body)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if h["status"] != "ok" || h["queue_cap"] != float64(7) || h["workers"] != float64(2) {
		t.Errorf("healthz body %s: want status ok, queue_cap 7, workers 2", body)
	}
}

// TestDrainFlushesJournal: the forensic journal must hold the flushed
// doc-open and verdict events for every served document after Shutdown —
// even without closing the writer — and the verdict response must carry
// the journal session as its correlation key.
func TestDrainFlushesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jw := journal.NewWriter(f, journal.Options{Session: "serve-test"})

	s := newTestServer(t, Config{
		Pipeline: pipeline.Options{Seed: 4242, Obs: obs.NewRegistry(), Journal: jw},
		Workers:  1,
	})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	g := corpus.NewGenerator(4242)
	doc := g.BenignFormJS()
	resp, body := postScan(t, "http://"+s.Addr(), doc.Raw, map[string]string{HeaderDocID: "journaled-doc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("verdict JSON: %v", err)
	}
	if sr.JournalSession != "serve-test" {
		t.Errorf("journal_session %q, want serve-test", sr.JournalSession)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	events, err := journal.ReadFile(path)
	if err != nil {
		t.Fatalf("reading flushed journal: %v", err)
	}
	var open, verdict bool
	for _, e := range events {
		if e.DocID != "journaled-doc" {
			continue
		}
		switch e.T {
		case journal.TypeDocOpen:
			open = true
		case journal.TypeVerdict:
			verdict = true
		}
	}
	if !open || !verdict {
		t.Errorf("flushed journal missing events for journaled-doc: open=%v verdict=%v (%d events)", open, verdict, len(events))
	}
}

// TestNoGoroutineLeak: a full serve-and-drain cycle must release its
// worker lanes and listener goroutines.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := newTestServer(t, Config{Workers: 4})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	g := corpus.NewGenerator(4242)
	for i := 0; i < 3; i++ {
		resp, _ := postScan(t, "http://"+s.Addr(), g.BenignText(4<<10).Raw, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan %d: status %d", i, resp.StatusCode)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return // allow a little slack for runtime bookkeeping
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRouteSet pins the daemon's one route set: every route lives under
// /v1, and the pre-versioning paths, the expvar endpoint and the retired
// /v1/debug/slo endpoint are not served at all.
func TestRouteSet(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := corpus.NewGenerator(7).BenignText(4 << 10).Raw
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/scan", http.StatusNotFound},
		{http.MethodGet, "/healthz", http.StatusNotFound},
		{http.MethodGet, "/metrics", http.StatusNotFound},
		{http.MethodGet, "/debug/vars", http.StatusNotFound},
		{http.MethodPost, "/v1/scan", http.StatusOK},
		{http.MethodGet, "/v1/healthz", http.StatusOK},
		{http.MethodGet, "/v1/metrics", http.StatusOK},
		{http.MethodGet, "/v1/debug/slo", http.StatusNotFound},
		{http.MethodGet, "/v1/debug/slow", http.StatusOK},
	} {
		var body io.Reader
		if tc.method == http.MethodPost {
			body = bytes.NewReader(doc)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestScanResponseDepth pins the depth-aware response surface: a daemon
// running at deep depth reports depth=deep and the explored path count
// for an evasive document, and convicts it.
func TestScanResponseDepth(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.Pipeline.Depth = pipeline.DepthDeep
	cfg.Pipeline.Seed = 4242
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sample, ok := corpus.NewGenerator(99).Evasive("mal-timebomb")
	if !ok {
		t.Fatal("evasive family missing")
	}
	resp, body := postScan(t, ts.URL, sample.Raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep scan: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("verdict JSON: %v", err)
	}
	if sr.Depth != string(pipeline.DepthDeep) {
		t.Errorf("depth %q, want %q", sr.Depth, pipeline.DepthDeep)
	}
	if !sr.Malicious {
		t.Errorf("time bomb not convicted at deep depth: %+v", sr)
	}
	if sr.DeepScanPaths < 2 {
		t.Errorf("deepscan_paths = %d, want >= 2", sr.DeepScanPaths)
	}
}
