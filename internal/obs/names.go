package obs

import "strings"

// Canonical series names. Every component that reports into a Registry
// uses these, so the Prometheus exposition, the structured snapshot and
// the public Stats API all agree on one vocabulary (documented in DESIGN.md
// §10).
const (
	// MetricPhaseSeconds is the per-phase latency histogram family; one
	// series per pipeline phase via PhaseSeries: parse, analyze,
	// instrument (front-end, observed by internal/instrument) and open,
	// detect (runtime, observed by internal/pipeline).
	MetricPhaseSeconds = "pdfshield_phase_seconds"
	// MetricDocSeconds is the end-to-end per-document latency histogram.
	MetricDocSeconds = "pdfshield_doc_seconds"

	// Pipeline outcome counters.
	MetricDocsTotal     = "pdfshield_docs_total"
	MetricDocsMalicious = "pdfshield_docs_malicious_total"
	MetricDocsNoJS      = "pdfshield_docs_nojavascript_total"
	MetricDocsCrashed   = "pdfshield_docs_crashed_total"
	MetricDocsErrored   = "pdfshield_docs_errored_total"
	MetricPanics        = "pdfshield_panics_contained_total"

	// Batch engine gauges.
	MetricBatchQueueDepth = "pdfshield_batch_queue_depth"
	MetricBatchWorkers    = "pdfshield_batch_workers"
	MetricSessionsActive  = "pdfshield_sessions_active"

	// Front-end (internal/instrument) counters.
	MetricDocsInstrumented = "pdfshield_docs_instrumented_total"
	MetricScripts          = "pdfshield_scripts_instrumented_total"
	MetricStagedRewrites   = "pdfshield_staged_rewrites_total"

	// Runtime detector (internal/detect) counters.
	MetricAlerts          = "pdfshield_alerts_total"
	MetricFakeMessages    = "pdfshield_fake_messages_total"
	MetricFeatureTriggers = "pdfshield_feature_triggers_total"

	// Ingestion daemon series (internal/serve). Admission is the bounded
	// queue in front of the scan workers; rejections carry a reason label
	// ("queue" = backpressure 429, "ratelimit" = tenant bucket empty,
	// "draining" = shutdown in progress).
	MetricServeQueueDepth = "pdfshield_serve_queue_depth"
	MetricServeInFlight   = "pdfshield_serve_inflight"
	MetricServeAccepted   = "pdfshield_serve_accepted_total"
	MetricServeRejected   = "pdfshield_serve_rejected_total"
	MetricServeSeconds    = "pdfshield_serve_request_seconds"

	// Forensic event journal health (internal/journal). The fail-open
	// contract routes sink errors here instead of failing detection.
	MetricJournalEvents = "pdfshield_journal_events_total"
	MetricJournalErrors = "pdfshield_journal_errors_total"

	// Front-end cache series (callback-backed from cache.Stats; see
	// Cache.RegisterMetrics).
	MetricCacheHits      = "pdfshield_cache_hits_total"
	MetricCacheMisses    = "pdfshield_cache_misses_total"
	MetricCacheShared    = "pdfshield_cache_shared_total"
	MetricCacheEvictions = "pdfshield_cache_evictions_total"
	MetricCacheEntries   = "pdfshield_cache_entries"
	MetricCacheBytes     = "pdfshield_cache_bytes"

	// Static triage tier series (internal/pipeline over internal/triage).
	// Routes carries a "route" label (benign/malicious/uncertain); the
	// histogram observes each triage evaluation.
	MetricTriageRoutes  = "pdfshield_triage_routes_total"
	MetricTriageSeconds = "pdfshield_triage_seconds"

	// Forced-execution deep-scan series (internal/pipeline over
	// internal/js ExploreForced). Paths counts every explored path
	// (natural ones included); the histogram observes the whole deep open
	// (reader open with forced execution active) and uses the widened
	// DeepScanBuckets bounds — deep opens routinely exceed the default
	// 10s top bucket; the budget counter counts scripts whose exploration
	// a path/step/decision budget cut short.
	MetricDeepScanPaths   = "pdfshield_deepscan_paths_total"
	MetricDeepScanSeconds = "pdfshield_deepscan_seconds"
	MetricDeepScanBudget  = "pdfshield_deepscan_budget_exhausted_total"

	// Bytecode JS engine series (internal/js). The histogram observes each
	// compile performed on a unit-cache miss; the counters/gauges are
	// callback-backed from js.UnitCache.Stats (see pipeline's System wiring).
	MetricJSCompileSeconds = "pdfshield_js_compile_seconds"
	MetricJSUnitsHits      = "pdfshield_js_units_hits_total"
	MetricJSUnitsMisses    = "pdfshield_js_units_misses_total"
	MetricJSUnitsEvictions = "pdfshield_js_units_evictions_total"
	MetricJSUnitsEntries   = "pdfshield_js_units_entries"
	MetricJSUnitsBytes     = "pdfshield_js_units_bytes"

	// Diagnostics subsystem series (flight recorder and stall watchdog —
	// see flight.go/watchdog.go and DESIGN.md §16).
	//
	// MetricFlightRetained counts traces the flight recorder tail-sampled
	// into guaranteed retention, labelled by reason (errored / crashed /
	// quarantined / deep-scan / slow).
	MetricFlightRetained = "pdfshield_flight_retained_total"
	// MetricWatchdogStalls counts documents the stall watchdog flagged as
	// stuck past their phase deadline (each capture includes a goroutine
	// dump; see Watchdog.Reports).
	MetricWatchdogStalls = "pdfshield_watchdog_stalls_total"

	// MetricBuildInfo is the conventional build-identity gauge: constant
	// value 1 with version/go_version labels, so a scrape identifies the
	// binary it is talking to (stamped via -ldflags in the Makefile).
	MetricBuildInfo = "pdfshield_build_info"
)

// Pipeline phase names, in execution order (also the span names of a
// document trace).
const (
	PhaseParse      = "parse"
	PhaseAnalyze    = "analyze"
	PhaseInstrument = "instrument"
	// PhaseTriage is the static fast-path stage between instrument and
	// open (absent from traces when triage is disabled).
	PhaseTriage = "triage"
	PhaseOpen   = "open"
	PhaseDetect = "detect"
	// PhaseFrontEnd is the collapsed front-end span recorded when a cache
	// hit (or shared flight) skipped the real parse/analyze/instrument
	// phases.
	PhaseFrontEnd = "frontend"
)

// LatencyBuckets are the default histogram bounds in seconds, spanning
// the sub-millisecond front-end phases up to multi-second corpus passes.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// DeepScanBuckets extend LatencyBuckets past the 10s ceiling for the
// deep-scan open histogram: forced execution costs ~78× a standard open,
// so observations above 10s are routine there, and with the default
// bounds they all collapsed into the implicit +Inf bucket — silently
// truncating any p90 estimate at 10s. The explicit overflow buckets keep
// the tail quantiles finite up to five minutes.
var DeepScanBuckets = append(append([]float64{}, LatencyBuckets...),
	30, 60, 120, 300)

// Series composes a single-label series name, escaping the label value
// per the Prometheus text format.
func Series(name, label, value string) string {
	return Labels(name, label, value)
}

// Labels composes a series name with any number of label pairs
// (label1, value1, label2, value2, ...), escaping each value per the
// Prometheus text format. A trailing odd argument is ignored.
func Labels(name string, kv ...string) string {
	var b strings.Builder
	b.Grow(len(name) + 8*len(kv))
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		value := kv[i+1]
		for j := 0; j < len(value); j++ {
			switch c := value[j]; c {
			case '\\', '"':
				b.WriteByte('\\')
				b.WriteByte(c)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	b.WriteString(`}`)
	return b.String()
}

// PhaseSeries names one phase's latency series.
func PhaseSeries(phase string) string {
	return Series(MetricPhaseSeconds, "phase", phase)
}

// FeatureSeries names one detector feature's trigger counter.
func FeatureSeries(feature string) string {
	return Series(MetricFeatureTriggers, "feature", feature)
}

// SplitSeries splits a series name into its base name and the inline
// label block ("" when unlabelled): `a{b="c"}` → (`a`, `b="c"`).
func SplitSeries(series string) (base, labels string) {
	i := strings.IndexByte(series, '{')
	if i < 0 || !strings.HasSuffix(series, "}") {
		return series, ""
	}
	return series[:i], series[i+1 : len(series)-1]
}

// LabelValue extracts a label's value from a series name produced by
// Series ("" when absent).
func LabelValue(series, label string) string {
	_, lbl := SplitSeries(series)
	prefix := label + `="`
	// Match only at a label boundary (start or after a comma), so asking
	// for "version" cannot land inside a "go_version" pair.
	i := strings.Index(lbl, prefix)
	for i > 0 && lbl[i-1] != ',' {
		j := strings.Index(lbl[i+1:], prefix)
		if j < 0 {
			return ""
		}
		i += 1 + j
	}
	if i < 0 {
		return ""
	}
	rest := lbl[i+len(prefix):]
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c == '\\' && i+1 < len(rest) {
			i++
			if rest[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(rest[i])
			}
			continue
		}
		if c == '"' {
			break
		}
		b.WriteByte(c)
	}
	return b.String()
}
