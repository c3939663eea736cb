// Package serve is the HTTP ingestion tier: a long-running daemon that
// accepts document submissions over HTTP/JSON and runs them through the
// full protection pipeline (instrument → monitored open → verdict).
//
// The design goal is not raw throughput — the batch engine already has
// that — but *admission control*: under sustained traffic the correctness
// concern is what happens at saturation. Every document passes two gates
// before it costs any pipeline work: a per-tenant token bucket (one hot
// tenant cannot starve the rest) and a bounded admission queue whose
// overflow answers 429 with a Retry-After instead of queueing unbounded
// latency. The daemon is one node: like the paper's per-host detector,
// it scans every document it admits. Shutdown is a drain: the listener
// stops accepting, in-flight documents finish under a deadline, and the
// forensic journal is flushed before the process exits.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdfshield/internal/instrument"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultQueueDepth   = 64
	DefaultMaxDocBytes  = 64 << 20 // 64 MB per submitted document
	DefaultDrainTimeout = 30 * time.Second
)

// queueRetryAfter is the backpressure hint returned with a queue-full 429:
// per-document latency is milliseconds, so a saturated queue of default
// depth drains well within a second.
const queueRetryAfter = time.Second

// HTTP headers of the ingestion protocol.
const (
	// HeaderTenant assigns the submission to a rate-limit tenant ("" is a
	// tenant of its own).
	HeaderTenant = "X-Tenant"
	// HeaderDocID names the document; generated from the content hash when
	// absent. The ID is the correlation key into journal events and traces.
	HeaderDocID = "X-Doc-Id"
)

// Config tunes a Server.
type Config struct {
	// Pipeline configures the System the daemon scans with. Cache and
	// Journal wired here are the daemon's front-end cache and forensic
	// journal (the journal is flushed on drain).
	Pipeline pipeline.Options
	// Workers is the number of concurrent scan lanes, each owning one
	// recycled reader session (0 = runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429 +
	// Retry-After (0 = DefaultQueueDepth).
	QueueDepth int
	// MaxDocBytes bounds one submission's body (0 = DefaultMaxDocBytes).
	MaxDocBytes int64
	// DrainTimeout bounds how long Close waits for in-flight documents
	// after a shutdown signal (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// TenantRate grants each tenant this many documents/second
	// (0 = unlimited); TenantBurst is the bucket ceiling (0 = max(rate,1)).
	TenantRate  float64
	TenantBurst int
	// Pprof mounts the net/http/pprof profiling handlers at /debug/pprof.
	// Off by default: the profiles expose goroutine stacks and heap
	// contents, so they are opt-in (-pprof on the daemon CLI).
	Pprof bool
	// Timeouts harden the HTTP listener (zero fields =
	// obs.DefaultServerTimeouts).
	Timeouts obs.ServerTimeouts
	// Now overrides the limiter clock (tests); nil = time.Now.
	Now func() time.Time
}

// job is one admitted submission travelling from handler to scan worker.
type job struct {
	ctx context.Context
	doc pipeline.BatchDoc
	res chan jobResult // buffered(1): worker never blocks on a gone client
}

type jobResult struct {
	verdict *pipeline.Verdict
	err     error
}

// Server is a running ingestion daemon.
type Server struct {
	cfg     Config
	sys     *pipeline.System
	obs     *obs.Registry
	limiter *TenantLimiter
	mux     *http.ServeMux

	queue     chan *job
	stop      chan struct{}
	workerWG  sync.WaitGroup
	draining  atomic.Bool
	docSeq    atomic.Uint64
	closeOnce sync.Once
	closeErr  error

	httpSrv *http.Server
	ln      net.Listener

	// process runs one admitted document (test seam; defaults to the
	// pipeline worker's recycled-session path).
	process func(ctx context.Context, w *pipeline.Worker, doc pipeline.BatchDoc) (*pipeline.Verdict, error)
}

// New builds the daemon: the pipeline System underneath, the scan worker
// pool, and the versioned HTTP routes (POST /v1/scan, GET /v1/healthz,
// GET /v1/metrics, /v1/debug/*). Call Start to bind a listener, or mount
// Handler on a listener of your own; Close drains and releases
// everything.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxDocBytes <= 0 {
		cfg.MaxDocBytes = DefaultMaxDocBytes
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	sys, err := pipeline.NewSystem(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	reg := cfg.Pipeline.Obs
	if reg == nil {
		reg = obs.Default
	}
	s := &Server{
		cfg:     cfg,
		sys:     sys,
		obs:     reg,
		limiter: NewTenantLimiter(cfg.TenantRate, cfg.TenantBurst, cfg.Now),
		queue:   make(chan *job, cfg.QueueDepth),
		stop:    make(chan struct{}),
	}
	s.process = func(ctx context.Context, w *pipeline.Worker, doc pipeline.BatchDoc) (*pipeline.Verdict, error) {
		return w.Process(ctx, doc)
	}

	reg.GaugeFunc(obs.MetricServeQueueDepth, func() float64 { return float64(len(s.queue)) })

	s.preregisterMetrics()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/scan", s.handleScan)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.Handle("GET /v1/metrics", reg.Handler())
	// Live debug surface: retained traces, slowest documents, stall
	// reports (see obs.Diagnostics.RegisterDebug).
	sys.Diagnostics().RegisterDebug(s.mux, "/v1/debug")
	if cfg.Pprof {
		obs.RegisterPprof(s.mux)
	}
	reg.RegisterRuntimeMetrics()
	obs.RegisterBuildInfo(reg)

	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.scanWorker()
	}
	return s, nil
}

// preregisterMetrics creates every serve-layer series at zero when the
// daemon is built, so scrapes and the metric-drift lint see the full
// vocabulary before the first request (the rejection reasons form a
// closed set; see reject call sites).
func (s *Server) preregisterMetrics() {
	s.obs.CounterAdd(obs.MetricServeAccepted, 0)
	for _, reason := range []string{"queue", "ratelimit", "draining", "toolarge", "body", "empty"} {
		s.obs.CounterAdd(obs.Series(obs.MetricServeRejected, "reason", reason), 0)
	}
	s.obs.GaugeAdd(obs.MetricServeInFlight, 0)
	s.obs.Histogram(obs.MetricServeSeconds, obs.LatencyBuckets)
}

// Handler returns the daemon's HTTP routes (tests mount it on httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// System exposes the pipeline underneath (stats, cache introspection).
func (s *Server) System() *pipeline.System { return s.sys }

// Start binds addr (":0" picks a port; see Addr) behind the hardened
// listener timeouts and serves until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.ln = ln
	s.httpSrv = obs.NewHTTPServer(s.mux, s.cfg.Timeouts)
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// scanWorker is one lane of the pool: it owns a pipeline.Worker (one
// recycled reader session) and drains admitted jobs until the server
// stops. A job whose submitter has gone away (request context dead) is
// skipped before it costs pipeline work.
func (s *Server) scanWorker() {
	defer s.workerWG.Done()
	w := s.sys.NewWorker()
	defer w.Close()
	for {
		select {
		case <-s.stop:
			return
		case jb := <-s.queue:
			if err := jb.ctx.Err(); err != nil {
				jb.res <- jobResult{err: err}
				continue
			}
			s.obs.GaugeAdd(obs.MetricServeInFlight, 1)
			v, err := s.process(jb.ctx, w, jb.doc)
			s.obs.GaugeAdd(obs.MetricServeInFlight, -1)
			jb.res <- jobResult{verdict: v, err: err}
		}
	}
}

// ScanResponse is the verdict JSON answered to POST /scan. DocID and
// JournalSession are the correlation keys: journal events (doc-open,
// runtime events, verdict) carry the same DocID under the same session,
// and Trace is the submission's phase timeline.
type ScanResponse struct {
	DocID       string `json:"doc_id"`
	ContentHash string `json:"content_hash"`
	Malicious   bool   `json:"malicious"`
	NoJS        bool   `json:"no_javascript,omitempty"`
	Crashed     bool   `json:"crashed,omitempty"`
	Malscore    int    `json:"malscore,omitempty"`
	AlertReason string `json:"alert_reason,omitempty"`
	Features    []int  `json:"features,omitempty"`
	// Depth is the scan depth the verdict was produced at
	// (static/standard/deep/auto).
	Depth string `json:"depth,omitempty"`
	// TriageRoute is the static triage tier's routing decision
	// (benign/malicious/uncertain; "" when the daemon runs without
	// triage). Routed documents never opened a reader process.
	TriageRoute string `json:"triage_route,omitempty"`
	// DeepScanPaths counts the execution paths the forced-execution deep
	// lane explored for this document (0 when no deep scan ran).
	DeepScanPaths int `json:"deepscan_paths,omitempty"`
	// Cache annotates how the front-end was satisfied (hit/miss/shared;
	// "" when the daemon runs without a cache).
	Cache          string     `json:"cache,omitempty"`
	ElapsedMS      float64    `json:"elapsed_ms"`
	JournalSession string     `json:"journal_session,omitempty"`
	Trace          *obs.Trace `json:"trace,omitempty"`
	Error          string     `json:"error,omitempty"`
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec mirrors the Retry-After header for JSON-only clients.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

func (s *Server) reject(w http.ResponseWriter, status int, reason string, retryAfter time.Duration, msg string) {
	s.obs.Inc(obs.Series(obs.MetricServeRejected, "reason", reason))
	w.Header().Set("Content-Type", "application/json")
	var retrySec int
	if retryAfter > 0 {
		// Retry-After is whole seconds, rounded up: hinting 0 would invite
		// an immediate retry storm against a still-saturated queue.
		retrySec = int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(retrySec))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, RetryAfterSec: retrySec})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		// Draining answers 503 so load balancers stop routing here while
		// the in-flight documents finish.
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":      status,
		"queue_depth": len(s.queue),
		"queue_cap":   cap(s.queue),
		"workers":     s.cfg.Workers,
	})
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining", queueRetryAfter, "draining: not accepting new documents")
		return
	}
	tenant := r.Header.Get(HeaderTenant)
	if ok, retry := s.limiter.Allow(tenant); !ok {
		s.reject(w, http.StatusTooManyRequests, "ratelimit", retry, fmt.Sprintf("tenant %q over rate limit", tenant))
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxDocBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reject(w, http.StatusRequestEntityTooLarge, "toolarge", 0,
				fmt.Sprintf("document exceeds %d bytes", s.cfg.MaxDocBytes))
			return
		}
		s.reject(w, http.StatusBadRequest, "body", 0, fmt.Sprintf("reading body: %v", err))
		return
	}
	if len(raw) == 0 {
		s.reject(w, http.StatusBadRequest, "empty", 0, "empty body: POST the PDF bytes")
		return
	}

	hash := instrument.ContentHash(raw)
	docID := r.Header.Get(HeaderDocID)
	if docID == "" {
		docID = fmt.Sprintf("serve-%d-%s", s.docSeq.Add(1), hash[:12])
	}

	jb := &job{
		ctx: r.Context(),
		doc: pipeline.BatchDoc{ID: docID, Raw: raw},
		res: make(chan jobResult, 1),
	}
	select {
	case s.queue <- jb:
		s.obs.Inc(obs.MetricServeAccepted)
	default:
		s.reject(w, http.StatusTooManyRequests, "queue", queueRetryAfter, "admission queue full")
		return
	}

	select {
	case res := <-jb.res:
		s.writeVerdict(w, docID, hash, res, start)
	case <-r.Context().Done():
		// Client gone; the worker will skip (or finish) the job and find
		// nobody waiting — res is buffered so it never blocks.
		return
	}
}

func (s *Server) writeVerdict(w http.ResponseWriter, docID, hash string, res jobResult, start time.Time) {
	s.obs.Observe(obs.MetricServeSeconds, time.Since(start))
	resp := ScanResponse{
		DocID:          docID,
		ContentHash:    hash,
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1e3,
		JournalSession: s.cfg.Pipeline.Journal.Session(),
	}
	if res.err != nil {
		// A per-document analysis failure (hostile parse, contained panic)
		// is a terminal outcome for that document, not a server fault.
		resp.Error = res.err.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	v := res.verdict
	resp.Malicious = v.Malicious
	resp.NoJS = v.NoJavaScript
	resp.Crashed = v.Crashed
	resp.Depth = v.Depth
	resp.TriageRoute = v.TriageRoute
	if v.Open != nil {
		resp.DeepScanPaths = v.Open.DeepPaths
	}
	if v.Alert != nil {
		resp.Malscore = v.Alert.Malscore
		resp.AlertReason = v.Alert.Reason
	}
	if !v.NoJavaScript {
		resp.Features = make([]int, len(v.FeatureVector))
		for i, f := range v.FeatureVector {
			resp.Features[i] = f
		}
	}
	if v.Trace != nil {
		resp.Cache = v.Trace.Cache
		resp.Trace = v.Trace
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// Close drains and shuts the daemon down: the listener stops accepting
// (new submissions are rejected as draining), in-flight documents finish
// under DrainTimeout, workers release their reader sessions, the journal
// is flushed, and the pipeline System closes. In-flight documents that
// outrun the deadline still finish their pipeline pass (verdicts and
// journal records are never dropped mid-document); only their HTTP
// responses are abandoned.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown is Close with a caller-owned drain deadline. Repeated calls
// return the first drain's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		var drainErr error
		if s.httpSrv != nil {
			// Shutdown closes the listener at once and returns when every
			// active request's handler has finished — i.e. when the last
			// in-flight document has its verdict written.
			drainErr = s.httpSrv.Shutdown(ctx)
			if drainErr != nil {
				_ = s.httpSrv.Close()
			}
		}
		// Handlers are done (or abandoned); stop the lanes. A worker mid-
		// document finishes it before exiting, so wg.Wait is the "zero
		// dropped in-flight documents" guarantee.
		close(s.stop)
		s.workerWG.Wait()
		if err := s.cfg.Pipeline.Journal.Flush(); err != nil && drainErr == nil {
			drainErr = err
		}
		if err := s.sys.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
		s.closeErr = drainErr
	})
	return s.closeErr
}
