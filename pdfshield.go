// Package pdfshield is the public API of a complete reproduction of
// "Detecting Malicious Javascript in PDF through Document Instrumentation"
// (Liu, Wang, Stavrou — DSN 2014): a context-aware system that statically
// instruments PDF documents with encrypted context-monitoring code and
// detects infection attempts at runtime by correlating hooked system-level
// behaviour with Javascript execution context.
//
// The typical flow mirrors the paper's two phases:
//
//	sys, _ := pdfshield.New(pdfshield.Options{})
//	defer sys.Close()
//	verdict, _ := sys.ProcessDocumentContext(ctx, "invoice.pdf", raw)
//	if verdict.Malicious { ... }
//
// ProcessDocumentContext instruments the document (Phase I), opens it in
// a simulated, hooked reader process wired to the live runtime detector
// (Phase II), and reports the verdict with the full 13-feature malscore
// breakdown. Options.Depth selects the scan tier of every submission:
// DepthStatic routes on triage alone, DepthStandard performs the dynamic
// open, DepthDeep adds forced execution of dormant branches, and
// DepthAuto escalates only triage-uncertain documents to the deep lane.
//
// Lower-level entry points: Analyze extracts the five static features
// without modifying a document; Instrument performs Phase I only; Session
// opens several documents inside one reader process, reproducing the
// paper's multi-document attribution.
package pdfshield

import (
	"context"
	"errors"
	"fmt"
	"io"

	"pdfshield/internal/cache"
	"pdfshield/internal/detect"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
)

// Depth selects how hard a submission is scanned — the single
// depth-axis knob of the API (see the Depth* constants).
type Depth = pipeline.Depth

const (
	// DepthStatic judges every document on static triage evidence alone;
	// no reader process is ever created.
	DepthStatic = pipeline.DepthStatic
	// DepthStandard is the classic single-execution dynamic scan (the
	// default when Depth is unset).
	DepthStandard = pipeline.DepthStandard
	// DepthDeep force-executes every document: conditional branches are
	// explored on both arms and runtime features are unioned across all
	// explored paths, defeating time bombs, environment fingerprinting
	// and sandbox-detection gates.
	DepthDeep = pipeline.DepthDeep
	// DepthAuto routes by triage: confident documents are judged
	// statically, uncertain ones escalate to a forced-execution deep
	// scan. The recommended production setting.
	DepthAuto = pipeline.DepthAuto
)

// ParseDepth validates a depth name from a flag or request field ("" is
// accepted and means "unset": inherit the system depth).
func ParseDepth(s string) (Depth, error) { return pipeline.ParseDepth(s) }

// Options configures a System.
type Options struct {
	// ViewerVersion selects the simulated Acrobat version (default 9.0;
	// the paper's testbed ran 8.0 and 9.0).
	ViewerVersion float64
	// Seed makes instrumentation randomization and corpus generation
	// reproducible (0 = time-based).
	Seed int64
	// DeinstrumentBenign restores original scripts once a document is
	// classified benign (§III-F).
	DeinstrumentBenign bool
	// Cache enables the content-addressed front-end cache (nil = off):
	// documents are keyed by the SHA-256 of their bytes, and resubmitted
	// or duplicated documents reuse the completed static front-end
	// (parse, feature extraction, chain reconstruction, instrumentation)
	// instead of repeating it. Runtime detection still runs per open —
	// verdicts are never cached, only the static artifact.
	Cache *CacheConfig
	// Metrics selects the observability registry the system reports into
	// (nil = the process-wide default registry, which is what the
	// -metrics-addr endpoints of the bundled commands serve). Pass a
	// dedicated obs.NewRegistry() to isolate one System's numbers, e.g.
	// when running several Systems in one process.
	Metrics *Registry
	// Journal, when non-nil, records the forensic event stream of every
	// document processed: JS-context transitions, each hooked API call
	// with the confinement decision returned, feature triggers F6–F13,
	// fake-message detections with cause, confinement actions, and the
	// final verdict with per-feature malscore breakdown — one JSONL line
	// per event with monotonically increasing sequence numbers. Journal
	// writes are fail-open: a sink error is counted (see Journal.Err)
	// and never changes a verdict. Build one with NewJournal or
	// OpenJournal; a recorded journal replays offline through
	// `pdfshield-detect -replay`.
	Journal *Journal
	// Depth is the scan depth of every submission, single documents and
	// batches alike (DepthStatic, DepthStandard, DepthDeep or DepthAuto;
	// empty = DepthStandard). It is the API's one depth knob: to scan some
	// documents deeper, run a second System. The deep lane explores at
	// most 16 paths, 64 forced decisions per path and 2M interpreter
	// steps per path.
	Depth Depth
}

// Diagnostics is the live diagnostics handle: retained traces, stall
// reports, and the WriteDump operator report.
type Diagnostics = obs.Diagnostics

// Diagnostics exposes the System's diagnostics layer (flight recorder,
// stall watchdog), which every System runs with bounded defaults; see
// Stats.Flight/Watchdog.
func (s *System) Diagnostics() *Diagnostics { return s.inner.Diagnostics() }

// Journal is the append-only forensic event log (JSONL, sequence-numbered,
// fail-open). See Options.Journal.
type Journal = journal.Writer

// JournalEvent is one decoded journal record (see ReadJournal).
type JournalEvent = journal.Event

// NewJournal starts a journal on an arbitrary sink. The session string
// names the recording in the journal header ("" = "pdfshield").
func NewJournal(w io.Writer, session string) *Journal {
	return journal.NewWriter(w, journal.Options{Session: session})
}

// OpenJournal creates (truncating) a journal file that flushes after
// every event, so the record survives a crash mid-scan. The caller owns
// Close. The file is all `pdfshield-detect -replay` needs to verify the
// recording offline.
func OpenJournal(path, session string) (*Journal, error) {
	return journal.Create(path, journal.Options{Session: session, FlushEach: true})
}

// ReadJournal decodes a JSONL journal stream (validating the append-only
// sequence contract).
func ReadJournal(r io.Reader) ([]JournalEvent, error) {
	return journal.Read(r)
}

// Registry aggregates counters, gauges and latency histograms; see
// System.Stats for the consolidated snapshot and Options.Metrics for
// wiring a dedicated registry.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry for Options.Metrics.
func NewRegistry() *Registry { return obs.NewRegistry() }

// CacheConfig bounds the front-end cache. Zero values take the built-in
// defaults (4096 entries, 256 MB); negative caps disable the
// corresponding bound. Entries are immutable, content-addressed
// artifacts, so they never expire; the caps alone bound residency.
type CacheConfig struct {
	// MaxEntries caps the number of cached documents.
	MaxEntries int
	// MaxBytes caps the total retained payload bytes.
	MaxBytes int64
}

// CacheStats is a point-in-time snapshot of the front-end cache counters
// (hits, misses, singleflight-shared lookups, evictions and residency);
// HitRate is the fraction of submissions that skipped the front-end.
type CacheStats = cache.Stats

// CacheStats snapshots the front-end cache; ok is false when the system
// runs without one.
func (s *System) CacheStats() (stats CacheStats, ok bool) {
	return s.inner.CacheStats()
}

// System is a running protection stack: front-end instrumenter plus the
// runtime detector, which reader sessions call in-process.
type System struct {
	inner *pipeline.System
}

// New starts a protection system.
func New(opts Options) (*System, error) {
	var cacheCfg *cache.Config
	if opts.Cache != nil {
		cacheCfg = &cache.Config{
			MaxEntries: opts.Cache.MaxEntries,
			MaxBytes:   opts.Cache.MaxBytes,
		}
	}
	inner, err := pipeline.NewSystem(pipeline.Options{
		ViewerVersion:      opts.ViewerVersion,
		Seed:               opts.Seed,
		DeinstrumentBenign: opts.DeinstrumentBenign,
		Cache:              cacheCfg,
		Obs:                opts.Metrics,
		Journal:            opts.Journal,
		Depth:              opts.Depth,
	})
	if err != nil {
		return nil, fmt.Errorf("pdfshield: %w", err)
	}
	return &System{inner: inner}, nil
}

// Close stops the system's background diagnostics.
func (s *System) Close() error { return s.inner.Close() }

// StaticFeatures are the five novel static features of §III-B.
type StaticFeatures = instrument.StaticFeatures

// Verdict is the outcome of processing one document.
type Verdict struct {
	DocID string
	// Malicious reports a runtime alert for this document.
	Malicious bool
	// Malscore is Equation 1's weighted sum at alert time (0 if benign).
	Malscore int
	// Features lists the positive features at alert time.
	Features []string
	// Reason is "malscore" or "fake-message" for malicious documents.
	Reason string
	// NoJavaScript marks out-of-scope documents.
	NoJavaScript bool
	// Crashed reports the reader process crashed (failed exploit).
	Crashed bool
	// Static holds the front-end features.
	Static StaticFeatures
	// IsolatedFiles lists quarantined artifacts.
	IsolatedFiles []string
	// Deinstrumented holds restored bytes when DeinstrumentBenign is set
	// and the document proved benign.
	Deinstrumented []byte
	// Trace records the document's journey through the pipeline: ordered
	// phase spans (parse → analyze → instrument → open → detect) with
	// cache and outcome annotations. Nil when processing errored before a
	// verdict formed.
	Trace *Trace
	// TriageRoute is the static triage tier's decision for this document
	// ("benign", "malicious", "uncertain"; empty when the resolved depth
	// runs no triage or the document short-circuited before the tier
	// ran). Routed documents ("benign"/"malicious") never opened a
	// reader process.
	TriageRoute string
	// Depth is the resolved scan depth this verdict was produced under
	// ("static", "standard", "deep" or "auto"; empty only when the
	// document short-circuited before depth resolution, e.g.
	// NoJavaScript).
	Depth string
	// DeepScanPaths counts the execution paths explored by forced
	// execution (0 unless the resolved depth deep-scanned this document;
	// a natural single run counts as 1 path per script).
	DeepScanPaths int
}

// Trace is one document's phase-span record; it marshals to JSON with
// nanosecond offsets relative to its start time.
type Trace = obs.Trace

// TraceSpan is one phase's interval inside a Trace.
type TraceSpan = obs.Span

// ProcessDocumentContext runs the full pipeline on one document. The
// context is checked at every phase boundary (front-end, session open,
// detection): once it ends, processing stops and ctx.Err() is returned
// (unwrappable via errors.Is).
func (s *System) ProcessDocumentContext(ctx context.Context, docID string, raw []byte) (*Verdict, error) {
	v, err := s.inner.ProcessDocumentContext(ctx, docID, raw)
	if err != nil {
		return nil, fmt.Errorf("pdfshield: process %s: %w", docID, err)
	}
	return toVerdict(v), nil
}

func toVerdict(v *pipeline.Verdict) *Verdict {
	out := &Verdict{
		DocID:          v.DocID,
		Malicious:      v.Malicious,
		NoJavaScript:   v.NoJavaScript,
		Crashed:        v.Crashed,
		Deinstrumented: v.Deinstrumented,
		Trace:          v.Trace,
		TriageRoute:    v.TriageRoute,
		Depth:          v.Depth,
	}
	if v.Open != nil {
		out.DeepScanPaths = v.Open.DeepPaths
	}
	if v.Instrument != nil {
		out.Static = v.Instrument.Features
	}
	if v.Alert != nil {
		out.Malscore = v.Alert.Malscore
		out.Features = v.Alert.Features.Positive()
		out.Reason = v.Alert.Reason
		out.IsolatedFiles = v.Alert.IsolatedFiles
	}
	return out
}

// BatchDoc is one input document for ProcessBatchContext: a
// caller-chosen ID and the document's bytes.
type BatchDoc = pipeline.BatchDoc

// BatchOptions tunes a batch run: Workers concurrent reader sessions
// (zero or negative = runtime.NumCPU()). Every document is scanned at
// the System's Options.Depth.
type BatchOptions = pipeline.BatchOptions

// BatchResult collects a batch run's outcome. Verdicts and Errors are
// indexed like the input documents; exactly one of Verdicts[i]/Errors[i]
// is non-nil per document. System.CacheStats reports the front-end
// cache's counters.
type BatchResult struct {
	Verdicts []*Verdict
	Errors   []error
}

// ProcessBatchContext runs the full pipeline over many documents with a
// worker pool. Per-document failures land in BatchResult.Errors instead
// of aborting the batch, results come back in input order, and verdicts
// match what serial ProcessDocumentContext calls would produce for the same
// Seed. Once ctx ends, no further document is dispatched: documents
// already processed keep their verdicts, and every remaining slot's
// error satisfies errors.Is(err, ctx.Err()).
func (s *System) ProcessBatchContext(ctx context.Context, docs []BatchDoc, opts BatchOptions) *BatchResult {
	res := s.inner.ProcessBatchContext(ctx, docs, opts)
	out := &BatchResult{Verdicts: make([]*Verdict, len(docs)), Errors: make([]error, len(docs))}
	for i, v := range res.Verdicts {
		if err := res.Errors[i]; err != nil {
			out.Errors[i] = fmt.Errorf("pdfshield: process %s: %w", docs[i].ID, err)
			continue
		}
		if v != nil {
			out.Verdicts[i] = toVerdict(v)
		}
	}
	return out
}

// Analyze extracts static features from a document without modifying it.
func Analyze(raw []byte) (StaticFeatures, error) {
	feats, _, _, err := instrument.Analyze(raw)
	if err != nil {
		return StaticFeatures{}, fmt.Errorf("pdfshield: analyze: %w", err)
	}
	return feats, nil
}

// InstrumentResult describes a Phase-I instrumentation.
type InstrumentResult struct {
	// Output is the instrumented document.
	Output []byte
	// Key is the wire-form protection key ("DetectorID:InstrKey").
	Key string
	// ScriptsInstrumented counts context-monitor insertions.
	ScriptsInstrumented int
	// Static holds the extracted features.
	Static StaticFeatures
}

// Instrument runs Phase I only: static analysis plus document
// instrumentation. Returns instrument.ErrNoJavaScript (via errors.Is) for
// documents with nothing to monitor. The System keeps the output's
// registry records for its whole life: the caller opens the output
// elsewhere, and the detector must still validate its key.
func (s *System) Instrument(docID string, raw []byte) (*InstrumentResult, error) {
	res, err := s.inner.Instrumenter.InstrumentBytes(docID, raw)
	if err != nil {
		return nil, err
	}
	return &InstrumentResult{
		Output:              res.Output,
		Key:                 res.Key.String(),
		ScriptsInstrumented: res.ScriptsInstrumented,
		Static:              res.Features,
	}, nil
}

// ErrNoJavaScript re-exports the out-of-scope sentinel.
var ErrNoJavaScript = instrument.ErrNoJavaScript

// ErrUnresolvedObjectStreams re-exports the fail-safe error for documents
// whose object streams may hide scripts the parser cannot see.
var ErrUnresolvedObjectStreams = instrument.ErrUnresolvedObjectStreams

// Session opens multiple documents inside one simulated reader process,
// reproducing the paper's multi-document attribution scenario.
type Session struct {
	sys    *System
	inner  *pipeline.Session
	opened []*instrument.Result
}

// NewSession starts a hooked reader process.
func (s *System) NewSession() *Session {
	return &Session{sys: s, inner: s.inner.NewSession()}
}

// Open instruments (if needed) and opens a document inside the session's
// reader process. The document stays open until the session closes.
//
// Documents without Javascript have nothing to monitor: Open does not
// open them and returns an error satisfying
// errors.Is(err, ErrNoJavaScript), so callers can distinguish
// out-of-scope documents from real failures. (Earlier versions silently
// passed the nil instrumentation result through to the reader.)
func (sess *Session) Open(docID string, raw []byte) error {
	res, err := sess.sys.inner.Instrumenter.InstrumentBytes(docID, raw)
	if err != nil {
		if errors.Is(err, instrument.ErrNoJavaScript) {
			return fmt.Errorf("pdfshield: open %s: %w", docID, err)
		}
		return err
	}
	sess.opened = append(sess.opened, res)
	if _, err := sess.inner.Open(res, reader.OpenOptions{}); err != nil {
		return fmt.Errorf("pdfshield: open %s: %w", docID, err)
	}
	return nil
}

// Close terminates the reader process and forgets what the session's
// documents left behind: their registry records and detector state. The
// alerts they raised stay in the detector's history.
func (sess *Session) Close() {
	sess.inner.Close()
	for _, res := range sess.opened {
		sess.sys.inner.Retire(res)
	}
	sess.opened = nil
}

// IsMalicious reports whether an alert in the detector's recent history
// names docID.
func (s *System) IsMalicious(docID string) bool {
	return s.inner.Detector.IsMalicious(docID)
}

// Alerts returns the most recent alerts (at most detect.AlertHistory),
// oldest first.
func (s *System) Alerts() []detect.Alert {
	return s.inner.Detector.Alerts()
}

// DocStats counts per-document pipeline outcomes.
type DocStats = pipeline.DocStats

// PhaseStats summarizes one phase's latency histogram.
type PhaseStats = pipeline.PhaseStats

// DetectStats counts front-end and runtime detector activity.
type DetectStats = pipeline.DetectStats

// TriageStats counts static triage routing decisions.
type TriageStats = pipeline.TriageStats

// FlightStats summarizes the flight recorder's retention rings.
type FlightStats = obs.FlightStats

// WatchdogStats summarizes the stall watchdog.
type WatchdogStats = obs.WatchdogStats

// Stats is a consolidated point-in-time snapshot of the System: document
// outcomes, per-phase latency (keys "parse", "analyze", "instrument",
// "open", "detect", plus "total" for end-to-end), detector activity,
// front-end cache, compiled-unit cache and quarantine state, and the
// diagnostics sections. It marshals cleanly to JSON.
type Stats = pipeline.Stats

// Stats snapshots the System's observability registry. When several
// Systems share one registry (the Options.Metrics == nil default), the
// Docs/Phases/Detect sections aggregate across them, while Cache and
// Quarantined are always this System's own.
func (s *System) Stats() Stats { return s.inner.Stats() }

// Version reports the reproduced system's provenance.
const Version = "pdfshield 1.0 — reproduction of Liu, Wang & Stavrou, DSN 2014"

// ValidatePDF reports whether raw can be processed as a PDF document
// (lenient mode). Validation rides the front-end's analyze pass and reuses
// its parsed document, so validate-then-analyze flows parse once instead
// of running a second pdf.Parse over the same bytes.
func ValidatePDF(raw []byte) error {
	_, err := Analyze(raw)
	return err
}
