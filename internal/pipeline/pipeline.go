// Package pipeline wires the full system together: the front-end
// instrumenter, the runtime detector, and simulated reader processes whose
// context messages and hooked API calls reach the detector by direct
// in-process calls. It is the engine behind the public API, the example
// programs and the evaluation harness.
package pipeline

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/detect"
	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/reader"
	"pdfshield/internal/soapsrv"
	"pdfshield/internal/triage"
	"pdfshield/internal/winos"
)

// Options configures a System.
type Options struct {
	// ViewerVersion for reader processes (default 9.0).
	ViewerVersion float64
	// Seed makes instrumentation randomization reproducible (0 = time).
	Seed int64
	// DetectorID fixes the install identity (default: random).
	DetectorID string
	// DownloadsPath persists the JS-context executable list.
	DownloadsPath string
	// DeinstrumentBenign restores original scripts after a benign verdict
	// (§III-F).
	DeinstrumentBenign bool
	// W1, W2, Threshold override Table VII parameters (0 = defaults).
	W1, W2, Threshold int
	// SpawnHelper makes reader processes emit the benign AdobeARM spawn.
	SpawnHelper bool
	// Cache enables the content-addressed front-end cache (nil = off).
	// On a hit the whole static front-end is skipped and the stored
	// instrument.Result is reused; runtime detection still runs per open,
	// because the runtime features F8–F13 depend on each open's behaviour
	// — the cache holds the static artifact, never the verdict.
	Cache *cache.Config
	// Obs is the metrics registry every pipeline phase reports into
	// (nil = the process-wide obs.Default). Pass a private registry to
	// isolate a System's telemetry (tests, benchmark passes).
	Obs *obs.Registry
	// Journal, when non-nil, records the forensic event stream: document
	// open/verdict boundaries from the pipeline plus every runtime event
	// the detector processes (context transitions, hook decisions, feature
	// triggers, confinement, alerts). The recorded stream replays through
	// a fresh detector via journal.Replay, reproducing identical verdicts
	// offline. Sink errors are fail-open and never affect processing.
	Journal *journal.Writer
	// JSUnits overrides the compiled-unit cache shared by this System's
	// instrumenter and reader sessions (nil = the process-wide
	// js.DefaultUnits). Pass a private cache to isolate hit/miss counters
	// (tests, benchmark passes).
	JSUnits *js.UnitCache
	// Depth is the system-wide scan depth (see the Depth constants;
	// empty = DepthStandard). BatchOptions.Depth overrides this per batch.
	Depth Depth
	// DeepScan bounds the forced-execution explorer used by DepthDeep and
	// DepthAuto (zero fields = js.DefaultForce* defaults). Ignored at
	// other depths.
	DeepScan js.ForceConfig
	// Diag tunes the diagnostics subsystem — flight recorder, SLO
	// tracking, stall watchdog (see obs.DiagConfig; DESIGN.md §16). The
	// zero value enables everything with defaults; set Diag.Disable to
	// run without diagnostics. When a Journal is configured, the stall
	// watchdog's reports automatically include the wedged document's
	// recent journal events.
	Diag obs.DiagConfig
}

// System is a running instance of the whole protection stack.
type System struct {
	Registry     *instrument.Registry
	Instrumenter *instrument.Instrumenter
	Detector     *detect.Detector
	OS           *winos.OS
	// Obs is the metrics registry this System reports into; expose it via
	// obs.Registry.ServeMetrics / WritePrometheus, or read the structured
	// Stats() snapshot.
	Obs *obs.Registry

	opts    Options
	cache   *cache.Cache
	jsUnits *js.UnitCache
	diag    *obs.Diagnostics

	// keyLocks serializes reader opens per instrumentation key. Without a
	// cache the registry's duplicate rule makes each key's open unique;
	// with one, N cached submissions of the same bytes open the same key
	// concurrently, and the detector's per-key DocState (malscore, memory
	// watermarks) must see those opens one at a time to keep verdicts
	// equal to serial runs. The table also carries the deferred retire of
	// de-instrumented keys (see releaseKeyLock).
	klMu     sync.Mutex
	keyLocks map[string]*keyLock
}

// keyLock is one instrumentation key's open gate.
type keyLock struct {
	mu   sync.Mutex
	refs int
	// retire requests registry removal + cache invalidation once the last
	// in-flight open of this key releases (set by de-instrumentation).
	retire bool
}

// NewSystem builds the stack. It opens no listener: sessions deliver to the
// detector in-process.
func NewSystem(opts Options) (*System, error) {
	if opts.ViewerVersion == 0 {
		opts.ViewerVersion = 9.0
	}
	if _, err := ParseDepth(string(opts.Depth)); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	detID := opts.DetectorID
	if detID == "" {
		var err error
		detID, err = instrument.NewDetectorID(nil)
		if err != nil {
			return nil, err
		}
	}
	obsReg := opts.Obs
	if obsReg == nil {
		obsReg = obs.Default
	}
	registry := instrument.NewRegistry(detID)
	osState := winos.NewOS()
	det, err := detect.New(detect.Config{
		Registry:      registry,
		OS:            osState,
		DownloadsPath: opts.DownloadsPath,
		W1:            opts.W1,
		W2:            opts.W2,
		Threshold:     opts.Threshold,
		Obs:           obsReg,
		Journal:       opts.Journal,
	})
	if err != nil {
		return nil, err
	}
	jsUnits := opts.JSUnits
	if jsUnits == nil {
		jsUnits = js.DefaultUnits
	}
	ins := instrument.New(registry, instrument.Options{
		Endpoint: det.SOAPURL(),
		Seed:     opts.Seed,
		Obs:      obsReg,
		Units:    jsUnits,
	})
	sys := &System{
		Registry:     registry,
		Instrumenter: ins,
		Detector:     det,
		OS:           osState,
		Obs:          obsReg,
		opts:         opts,
		jsUnits:      jsUnits,
		keyLocks:     make(map[string]*keyLock),
	}
	if opts.Cache != nil {
		sys.cache = cache.New(*opts.Cache)
		sys.cache.RegisterMetrics(obsReg)
	}
	registerJSUnitMetrics(obsReg, jsUnits)
	diagCfg := opts.Diag
	if diagCfg.Watchdog.Context == nil && opts.Journal != nil {
		jw := opts.Journal
		diagCfg.Watchdog.Context = func(docID string) any { return jw.Recent(docID, 64) }
	}
	sys.diag = obs.NewDiagnostics(obsReg, diagCfg)
	preregisterMetrics(obsReg)
	return sys, nil
}

// Diagnostics exposes the System's flight recorder, SLO tracker and
// stall watchdog (nil when Options.Diag.Disable is set — all their
// methods are nil-safe). Servers mount its debug endpoints; operators
// read it through Stats and the SIGQUIT dump.
func (s *System) Diagnostics() *obs.Diagnostics { return s.diag }

// watchdog returns the stall watchdog (nil when diagnostics are off).
func (s *System) watchdog() *obs.Watchdog {
	if s.diag == nil {
		return nil
	}
	return s.diag.Watchdog
}

// registerJSUnitMetrics exposes the compiled-unit cache through the obs
// registry: callback-backed counters/gauges from UnitCache.Stats plus a
// compile-latency histogram fed by the cache's miss observer. When several
// Systems share js.DefaultUnits the counters aggregate across them (like
// every shared-registry series); the observer is per-cache, so the last
// System wired to a shared cache hosts its compile histogram.
func registerJSUnitMetrics(reg *obs.Registry, units *js.UnitCache) {
	stat := func(pick func(js.UnitCacheStats) float64) func() float64 {
		return func() float64 { return pick(units.Stats()) }
	}
	reg.CounterFunc(obs.MetricJSUnitsHits, stat(func(s js.UnitCacheStats) float64 { return float64(s.Hits) }))
	reg.CounterFunc(obs.MetricJSUnitsMisses, stat(func(s js.UnitCacheStats) float64 { return float64(s.Misses) }))
	reg.CounterFunc(obs.MetricJSUnitsEvictions, stat(func(s js.UnitCacheStats) float64 { return float64(s.Evictions) }))
	reg.GaugeFunc(obs.MetricJSUnitsEntries, stat(func(s js.UnitCacheStats) float64 { return float64(s.Entries) }))
	reg.GaugeFunc(obs.MetricJSUnitsBytes, stat(func(s js.UnitCacheStats) float64 { return float64(s.Bytes) }))
	units.SetObserver(func(d time.Duration, _ int64) {
		reg.Observe(obs.MetricJSCompileSeconds, d)
	})
}

// CacheStats snapshots the front-end cache counters; ok is false when the
// cache is disabled.
func (s *System) CacheStats() (stats cache.Stats, ok bool) {
	if s.cache == nil {
		return cache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// frontEnd runs the static front-end for one submission: a single
// ContentHash per document, then either the instrumenter directly or the
// content-addressed cache's singleflight read-through. Cached terminal
// errors (ErrNoJavaScript, parse failures, the registry's ErrDuplicate)
// replay exactly as the first submission observed them; cancellations
// are never cached (see cache.DoContext). The third return annotates how
// the submission was satisfied ("" = no cache, else hit/miss/shared).
func (s *System) frontEnd(ctx context.Context, docID string, raw []byte) (*instrument.Result, error, string) {
	hash := instrument.ContentHash(raw)
	if s.cache == nil {
		res, err := s.Instrumenter.InstrumentBytesWithHash(docID, raw, hash)
		return res, err, ""
	}
	res, err, outcome := s.cache.DoContext(ctx, hash, func() (*instrument.Result, error) {
		// A leader whose context died before the flight started must not
		// burn a full front-end pass for followers it can't serve anyway.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.Instrumenter.InstrumentBytesWithHash(docID, raw, hash)
	})
	return res, err, outcome.String()
}

// frontEndTraced wraps frontEnd and records the front-end portion of the
// document's trace: on a real pass the instrumenter's internally measured
// phase split (parse → analyze → instrument) is replayed into the
// timeline; on a cache hit / shared flight a single collapsed "frontend"
// span records the wait.
func (s *System) frontEndTraced(ctx context.Context, docID string, raw []byte, tr *obs.Trace) (*instrument.Result, error, string) {
	tr.MarkPhase(obs.PhaseFrontEnd)
	start := time.Now()
	res, err, note := s.frontEnd(ctx, docID, raw)
	tr.Cache = note
	off := tr.Offset(start)
	if res != nil && (note == "" || note == obs.CacheMiss) {
		t := res.Timing
		tr.AddSpan(obs.PhaseParse, off, t.ParseDecompress)
		tr.AddSpan(obs.PhaseAnalyze, off+t.ParseDecompress, t.FeatureExtraction)
		if t.Instrumentation > 0 {
			tr.AddSpan(obs.PhaseInstrument, off+t.ParseDecompress+t.FeatureExtraction, t.Instrumentation)
		}
	} else {
		tr.AddSpan(obs.PhaseFrontEnd, off, time.Since(start))
	}
	return res, err, note
}

// acquireKeyLock takes the open gate for an instrumentation key, creating
// it on first use.
func (s *System) acquireKeyLock(key string) *keyLock {
	s.klMu.Lock()
	kl, ok := s.keyLocks[key]
	if !ok {
		kl = &keyLock{}
		s.keyLocks[key] = kl
	}
	kl.refs++
	s.klMu.Unlock()
	kl.mu.Lock()
	return kl
}

// releaseKeyLock releases the gate; the last holder of a retired key
// completes its de-instrumentation (registry removal, so the key stops
// validating, and cache invalidation, so the stale instrumented artifact
// is never replayed).
func (s *System) releaseKeyLock(key string, kl *keyLock, res *instrument.Result) {
	kl.mu.Unlock()
	s.klMu.Lock()
	kl.refs--
	last := kl.refs == 0
	retire := last && kl.retire
	if last {
		delete(s.keyLocks, key)
	}
	s.klMu.Unlock()
	if retire {
		s.Instrumenter.Forget(key)
		if s.cache != nil {
			s.cache.Invalidate(res.ContentHash)
		}
	}
}

// markRetire flags a key for removal at last release.
func (s *System) markRetire(kl *keyLock) {
	s.klMu.Lock()
	kl.retire = true
	s.klMu.Unlock()
}

// Close stops the diagnostics watchdog and any detector wire servers.
func (s *System) Close() error {
	s.diag.Close()
	return s.Detector.Close()
}

// Session is one reader process wired to the detector.
type Session struct {
	Proc *reader.Process
	sink hook.Sink
	obs  *obs.Registry
}

// NewSession starts a reader process whose hook DLL and context monitoring
// code call the detector directly.
func (s *System) NewSession() *Session {
	sink := hook.NewDirectSink(s.Detector.Event)
	proc := reader.NewProcess(reader.Config{
		ViewerVersion: s.opts.ViewerVersion,
		Sink:          sink,
		OS:            s.OS,
		Notifier:      soapsrv.NewDirect(s.Detector.Notify),
		Units:         s.jsUnits,
	})
	s.Obs.GaugeAdd(obs.MetricSessionsActive, 1)
	return &Session{Proc: proc, sink: sink, obs: s.Obs}
}

// Open opens an instrumented document in this session's reader process.
func (sess *Session) Open(res *instrument.Result, opts reader.OpenOptions) (*reader.OpenResult, error) {
	return sess.Proc.Open(res.DocID, res.Output, opts)
}

// OpenRaw opens raw (possibly uninstrumented) bytes.
func (sess *Session) OpenRaw(docID string, raw []byte, opts reader.OpenOptions) (*reader.OpenResult, error) {
	return sess.Proc.Open(docID, raw, opts)
}

// Close terminates the reader process and its hook sink.
func (sess *Session) Close() {
	sess.Proc.Close()
	_ = sess.sink.Close()
	if sess.obs != nil {
		sess.obs.GaugeAdd(obs.MetricSessionsActive, -1)
		sess.obs = nil // idempotent: a double Close must not skew the gauge
	}
}

// Recycle prepares the session for its next document: the reader process is
// restarted (discarding all per-process state) while the hook sink, and
// its event numbering, carries over. Batch workers use this to amortize the
// session setup cost across many documents without letting one document's
// reader state leak into the next.
func (sess *Session) Recycle() {
	sess.Proc.Reset()
}

// Verdict is the outcome of processing one document end to end.
type Verdict struct {
	DocID string
	// Malicious reports a detector alert named this document.
	Malicious bool
	// Alert is the first alert for this document (nil when benign).
	Alert *detect.Alert
	// NoJavaScript reports the document was out of scope (nothing to
	// instrument or monitor).
	NoJavaScript bool
	// Crashed reports the reader process crashed while opening (failed
	// exploit).
	Crashed bool
	// Instrument is the front-end result.
	Instrument *instrument.Result
	// Open is the reader result (nil when NoJavaScript short-circuits).
	Open *reader.OpenResult
	// Deinstrumented holds restored bytes when DeinstrumentBenign is on
	// and the verdict is benign.
	Deinstrumented []byte
	// FeatureVector is the detector's final 13-feature vector for the
	// document (present for every instrumented document, benign or not;
	// used by the ablation experiments).
	FeatureVector detect.Vector
	// PeakMemMB and EnterMemMB expose the context-aware memory reading
	// that fed F8.
	PeakMemMB, EnterMemMB float64
	// Trace is the document's phase timeline (parse → analyze →
	// instrument → open → detect) with cache and outcome annotations.
	Trace *obs.Trace
	// TriageRoute is the static triage tier's routing decision for this
	// submission ("benign", "malicious", "uncertain"; empty when triage
	// is disabled or the document short-circuited before the tier ran).
	TriageRoute string
	// Triage is the full triage decision behind TriageRoute (nil when
	// disabled). For "benign"/"malicious" routes Open is nil: no reader
	// session was created.
	Triage *triage.Decision
	// Depth is the resolved scan depth this verdict was produced under
	// ("static", "standard", "deep" or "auto"; always one of the four —
	// an unset configuration resolves to "standard"). At "deep"/"auto"
	// with a dynamic open, Open carries the forced-execution path counts.
	Depth string
}

// ProcessDocumentContext runs the complete workflow on one document:
// instrument, open in a fresh monitored reader process, and collect the
// verdict. It is the batch engine's per-document path on a session of its
// own, so a panic anywhere in the analysis is contained and returned as
// an error: hostile documents fail closed instead of taking the caller
// down. Cancellation is honoured between phases (before the front-end,
// before the reader open, and between attachment opens); a cancelled
// call returns ctx.Err() and the document gets no verdict.
func (s *System) ProcessDocumentContext(ctx context.Context, docID string, raw []byte) (*Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var sess *Session
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	return s.processWithSession(ctx, &sess, BatchDoc{ID: docID, Raw: raw}, "")
}

// finishDoc closes out one document's processing: outcome counters, the
// end-to-end latency histogram (with the doc ID as its exemplar), the
// trace's outcome/depth/route annotations, the diagnostics recording
// (flight recorder, SLO scoring), and the journal's verdict record. The
// trace is attached to the verdict here so every verdict — including
// no-javascript short-circuits — carries its timeline.
func (s *System) finishDoc(tr *obs.Trace, v *Verdict, err error, total time.Duration) {
	s.Obs.Inc(obs.MetricDocsTotal)
	s.Obs.ObserveDoc(obs.MetricDocSeconds, total, tr.DocID)
	if err != nil || v == nil {
		s.Obs.Inc(obs.MetricDocsErrored)
		tr.Outcome = obs.OutcomeErrored
		if err != nil {
			tr.Error = err.Error()
		}
	} else {
		switch {
		case v.Malicious:
			tr.Outcome = obs.OutcomeMalicious
			s.Obs.Inc(obs.MetricDocsMalicious)
		case v.NoJavaScript:
			tr.Outcome = obs.OutcomeNoJavaScript
			s.Obs.Inc(obs.MetricDocsNoJS)
		case v.Crashed:
			tr.Outcome = obs.OutcomeCrashed
		default:
			tr.Outcome = obs.OutcomeBenign
		}
		if v.Crashed {
			s.Obs.Inc(obs.MetricDocsCrashed)
		}
		tr.Depth = v.Depth
		tr.Route = v.TriageRoute
		if v.Open != nil {
			tr.DeepPaths = v.Open.DeepPaths
		}
		v.Trace = tr
	}
	if s.diag != nil {
		// The trace is complete now (no span is added after finishDoc), so
		// the flight recorder may retain and share it.
		s.diag.SLO.Observe(tr.Depth, tr.Route, total, err != nil || v == nil)
		s.diag.Flight.Record(tr, total)
	}
	s.journalVerdict(tr.DocID, v, err)
}

// journalDocOpen records a document entering the pipeline. Pipeline
// events are forensic context (they interleave freely with the detector's
// lock-ordered stream and are not replayed).
func (s *System) journalDocOpen(docID string, size int) {
	if s.opts.Journal == nil {
		return
	}
	s.opts.Journal.Append(journal.Event{
		T:     journal.TypeDocOpen,
		DocID: docID,
		Cause: fmt.Sprintf("%d bytes", size),
	})
}

// journalVerdict records the final per-document outcome, including the
// detector's full 13-feature vector and malscore for alerted documents.
func (s *System) journalVerdict(docID string, v *Verdict, err error) {
	if s.opts.Journal == nil {
		return
	}
	e := journal.Event{T: journal.TypeVerdict, DocID: docID}
	payload := &journal.Verdict{}
	if err != nil {
		payload.Err = err.Error()
	}
	if v != nil {
		payload.Malicious = v.Malicious
		payload.NoJavaScript = v.NoJavaScript
		payload.Crashed = v.Crashed
		payload.Features = v.FeatureVector[:]
		if v.Alert != nil {
			payload.Malscore = v.Alert.Malscore
		}
		if v.Instrument != nil {
			e.Key = v.Instrument.Key.InstrKey
		}
	}
	e.Verdict = payload
	s.opts.Journal.Append(e)
}

// claimVerdict renames a verdict to the submitting document's identity: a
// cached front-end result carries the first submitter's DocID (that is
// the name the registry, and therefore runtime alerts, know the content
// by), but the verdict belongs to this submission.
func claimVerdict(v *Verdict, docID string) {
	if v != nil && v.DocID != docID {
		v.DocID = docID
	}
}

// openAndJudge opens an instrumented document (and its instrumented
// attachments) in the given session and assembles the verdict. The session
// is left open; callers own its lifecycle (processWithSession's callers
// close it or recycle it for the next document). Cancellation is
// checked before the host open and between attachment opens; the runtime
// state already accumulated stays with the detector (volatile state dies
// with the session as usual).
func (s *System) openAndJudge(ctx context.Context, sess *Session, res *instrument.Result, tr *obs.Trace, prof depthProfile) (*Verdict, error) {
	docID := res.DocID
	v := &Verdict{DocID: docID, Instrument: res, Depth: string(prof.depth)}

	// Opens of the same instrumentation key are serialized: the detector
	// keeps one DocState per key, and cached duplicates running in
	// parallel sessions would interleave their runtime state otherwise.
	var kl *keyLock
	if key := res.Key.InstrKey; key != "" {
		kl = s.acquireKeyLock(key)
		defer s.releaseKeyLock(key, kl, res)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr.MarkPhase(obs.PhaseOpen)
	if openHook != nil {
		openHook(docID)
	}
	openStart := time.Now()
	openRes, err := sess.Open(res, reader.OpenOptions{SpawnHelper: s.opts.SpawnHelper, ForceExec: prof.force})
	if err != nil {
		return nil, err
	}
	// The user opens instrumented attachments too (§VI: embedded and host
	// behaviours are correlated under the same detector).
	for _, emb := range res.Embedded {
		if openRes.Crashed || ctx.Err() != nil {
			break
		}
		if _, err := sess.OpenRaw(emb.DocID, emb.Output, reader.OpenOptions{ForceExec: prof.force}); err != nil {
			break // crashed attachment ends the session
		}
	}
	openDur := time.Since(openStart)
	tr.AddSpan(obs.PhaseOpen, tr.Offset(openStart), openDur)
	s.Obs.ObserveDoc(obs.PhaseSeries(obs.PhaseOpen), openDur, docID)
	if prof.force != nil {
		s.recordDeepScan(docID, res, openRes, openDur)
	}
	v.Open = openRes
	v.Crashed = openRes.Crashed

	tr.MarkPhase(obs.PhaseDetect)
	detectStart := time.Now()
	defer func() {
		detectDur := time.Since(detectStart)
		tr.AddSpan(obs.PhaseDetect, tr.Offset(detectStart), detectDur)
		s.Obs.ObserveDoc(obs.PhaseSeries(obs.PhaseDetect), detectDur, docID)
	}()

	// An alert on the host or on any of its attachments convicts the
	// document the user received.
	v.Malicious = s.Detector.IsMalicious(docID)
	for _, emb := range res.Embedded {
		if s.Detector.IsMalicious(emb.DocID) {
			v.Malicious = true
		}
	}
	for _, a := range s.Detector.Alerts() {
		if a.DocID == docID || strings.HasPrefix(a.DocID, docID+"::") {
			alert := a
			v.Alert = &alert
			break
		}
	}

	if st, ok := s.Detector.DocStateFor(res.Key.InstrKey); ok {
		v.FeatureVector = st.Features
		v.PeakMemMB = st.PeakMemMB
		v.EnterMemMB = st.EnterMemMB
	}

	// Volatile per-document state dies with the reader process.
	s.Detector.ForgetDoc(res.Key.InstrKey)

	if !v.Malicious && s.opts.DeinstrumentBenign && res.ScriptsInstrumented > 0 {
		restored, err := s.Instrumenter.Restore(res.Output, res.Spec)
		if err != nil {
			return nil, fmt.Errorf("deinstrument %s: %w", docID, err)
		}
		v.Deinstrumented = restored
		// Registry removal and cache invalidation wait until the last
		// in-flight open of this key releases: a concurrent duplicate that
		// already holds this Result must still validate against the
		// registry, or its monitoring messages would read as fake.
		s.markRetire(kl)
	}
	return v, nil
}
