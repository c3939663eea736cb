package pipeline

import (
	"strings"

	"pdfshield/internal/cache"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
)

// Stats is a consolidated point-in-time snapshot of a running System:
// document outcomes, per-phase latency, detector activity, front-end
// cache counters and quarantine state, all sourced from the same obs
// registry the Prometheus endpoints read. It marshals cleanly
// to JSON, so callers can log or ship it as-is.
//
// Note that when several Systems share one registry (the default
// obs.Default), Docs/Phases/Detect aggregate across all of them, while
// Cache and Quarantined are always this System's own.
type Stats struct {
	Docs   DocStats              `json:"docs"`
	Phases map[string]PhaseStats `json:"phases,omitempty"`
	Detect DetectStats           `json:"detect"`
	// Cache snapshots the front-end cache (nil when the System runs
	// without one).
	Cache *cache.Stats `json:"cache,omitempty"`
	// JSUnits snapshots the compiled-unit cache backing this System's
	// script interpreters (the process-wide js.DefaultUnits unless
	// Options.JSUnits isolated one).
	JSUnits js.UnitCacheStats `json:"js_units"`
	// Triage counts the static triage tier's routing decisions (all zero
	// unless a depth with the tier, DepthStatic or DepthAuto, ran).
	Triage TriageStats `json:"triage"`
	// Quarantined is how many artifacts runtime confinement has isolated.
	Quarantined int `json:"quarantined"`
	// Flight is the flight recorder occupancy, Watchdog the stall
	// watchdog state.
	Flight   *obs.FlightStats   `json:"flight,omitempty"`
	Watchdog *obs.WatchdogStats `json:"watchdog,omitempty"`
	// BatchQueueDepth and BatchWorkers reflect in-flight
	// ProcessBatchContext calls; SessionsActive counts open reader sessions.
	BatchQueueDepth int64 `json:"batch_queue_depth"`
	BatchWorkers    int64 `json:"batch_workers"`
	SessionsActive  int64 `json:"sessions_active"`
}

// DocStats counts per-document pipeline outcomes. Total = Malicious +
// Benign + NoJavaScript + Errored; Crashed overlaps Malicious/Benign
// (a crashed reader still gets a verdict), and PanicsContained overlaps
// Errored.
type DocStats struct {
	Total           uint64 `json:"total"`
	Malicious       uint64 `json:"malicious"`
	Benign          uint64 `json:"benign"`
	NoJavaScript    uint64 `json:"no_javascript"`
	Crashed         uint64 `json:"crashed"`
	Errored         uint64 `json:"errored"`
	PanicsContained uint64 `json:"panics_contained"`
}

// PhaseStats summarizes one phase's latency histogram.
type PhaseStats struct {
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
}

// DetectStats counts front-end and runtime detector activity.
type DetectStats struct {
	Alerts           uint64 `json:"alerts"`
	FakeMessages     uint64 `json:"fake_messages"`
	DocsInstrumented uint64 `json:"docs_instrumented"`
	Scripts          uint64 `json:"scripts_instrumented"`
	StagedRewrites   uint64 `json:"staged_rewrites"`
	// FeatureTriggers maps detector feature names ("F5:process-creation",
	// ...) to how many per-document vectors set them.
	FeatureTriggers map[string]uint64 `json:"feature_triggers,omitempty"`
}

// TriageStats counts static triage routes: Benign skipped the sandbox,
// Malicious were convicted without an open, Uncertain fell through to
// the full dynamic tier.
type TriageStats struct {
	Benign    uint64 `json:"benign"`
	Malicious uint64 `json:"malicious"`
	Uncertain uint64 `json:"uncertain"`
}

// Stats snapshots the System's observability registry into the
// consolidated form. The end-to-end document latency appears under the
// phase key "total" alongside the per-phase entries.
func (s *System) Stats() Stats {
	snap := s.Obs.Snapshot()
	st := Stats{
		Docs: DocStats{
			Total:           snap.Counters[obs.MetricDocsTotal],
			Malicious:       snap.Counters[obs.MetricDocsMalicious],
			NoJavaScript:    snap.Counters[obs.MetricDocsNoJS],
			Crashed:         snap.Counters[obs.MetricDocsCrashed],
			Errored:         snap.Counters[obs.MetricDocsErrored],
			PanicsContained: snap.Counters[obs.MetricPanics],
		},
		Detect: DetectStats{
			Alerts:           snap.Counters[obs.MetricAlerts],
			FakeMessages:     snap.Counters[obs.MetricFakeMessages],
			DocsInstrumented: snap.Counters[obs.MetricDocsInstrumented],
			Scripts:          snap.Counters[obs.MetricScripts],
			StagedRewrites:   snap.Counters[obs.MetricStagedRewrites],
		},
		Quarantined:     s.OS.QuarantineCount(),
		BatchQueueDepth: int64(snap.Gauges[obs.MetricBatchQueueDepth]),
		BatchWorkers:    int64(snap.Gauges[obs.MetricBatchWorkers]),
		SessionsActive:  int64(snap.Gauges[obs.MetricSessionsActive]),
	}
	// The counted outcomes are disjoint, so benign falls out of the total.
	counted := st.Docs.Malicious + st.Docs.NoJavaScript + st.Docs.Errored
	if st.Docs.Total > counted {
		st.Docs.Benign = st.Docs.Total - counted
	}
	for series, hs := range snap.Histograms {
		base, _ := obs.SplitSeries(series)
		var key string
		switch base {
		case obs.MetricPhaseSeconds:
			key = obs.LabelValue(series, "phase")
		case obs.MetricDocSeconds:
			key = "total"
		default:
			continue
		}
		if st.Phases == nil {
			st.Phases = make(map[string]PhaseStats)
		}
		st.Phases[key] = PhaseStats{
			Count:        hs.Count,
			TotalSeconds: hs.SumSeconds,
			MeanSeconds:  hs.Mean(),
		}
	}
	for series, n := range snap.Counters {
		if strings.HasPrefix(series, obs.MetricTriageRoutes+"{") {
			switch obs.LabelValue(series, "route") {
			case "benign":
				st.Triage.Benign = n
			case "malicious":
				st.Triage.Malicious = n
			case "uncertain":
				st.Triage.Uncertain = n
			}
			continue
		}
		if !strings.HasPrefix(series, obs.MetricFeatureTriggers+"{") {
			continue
		}
		if st.Detect.FeatureTriggers == nil {
			st.Detect.FeatureTriggers = make(map[string]uint64)
		}
		st.Detect.FeatureTriggers[obs.LabelValue(series, "feature")] = n
	}
	if cs, ok := s.CacheStats(); ok {
		st.Cache = &cs
	}
	st.JSUnits = s.jsUnits.Stats()
	fs := s.diag.Flight.Stats()
	st.Flight = &fs
	ws := s.diag.Watchdog.Stats()
	st.Watchdog = &ws
	return st
}
