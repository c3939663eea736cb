package pipeline

import (
	"pdfshield/internal/detect"
	"pdfshield/internal/obs"
	"pdfshield/internal/triage"
)

// preregisterMetrics creates every series the pipeline stack can emit,
// at its zero value, when the System is built. Without this a series
// only exists after its first event, so a dashboard (or the
// `make lint-metrics` drift check) cannot tell "metric renamed away"
// from "nothing happened yet". Histograms are preregistered with their
// canonical bucket bounds — the first registration wins the bounds, so
// this also pins deepscan_seconds to the widened DeepScanBuckets.
//
// Registering is idempotent, so several Systems sharing one registry
// (the obs.Default case) preregister harmlessly.
func preregisterMetrics(reg *obs.Registry) {
	for _, name := range []string{
		// Pipeline outcomes.
		obs.MetricDocsTotal, obs.MetricDocsMalicious, obs.MetricDocsNoJS,
		obs.MetricDocsCrashed, obs.MetricDocsErrored, obs.MetricPanics,
		// Front-end (internal/instrument).
		obs.MetricDocsInstrumented, obs.MetricScripts, obs.MetricStagedRewrites,
		// Runtime detector (internal/detect).
		obs.MetricAlerts, obs.MetricFakeMessages,
		// Deep-scan accounting.
		obs.MetricDeepScanPaths, obs.MetricDeepScanBudget,
	} {
		reg.CounterAdd(name, 0)
	}
	for _, route := range []triage.Route{triage.RouteBenign, triage.RouteMalicious, triage.RouteUncertain} {
		reg.CounterAdd(obs.Series(obs.MetricTriageRoutes, "route", string(route)), 0)
	}
	for _, feature := range detect.FeatureNames {
		reg.CounterAdd(obs.FeatureSeries(feature), 0)
	}
	for _, name := range []string{
		obs.MetricBatchQueueDepth, obs.MetricBatchWorkers, obs.MetricSessionsActive,
	} {
		reg.GaugeAdd(name, 0)
	}
	for _, phase := range []string{
		obs.PhaseParse, obs.PhaseAnalyze, obs.PhaseInstrument,
		obs.PhaseTriage, obs.PhaseOpen, obs.PhaseDetect, obs.PhaseFrontEnd,
	} {
		reg.Histogram(obs.PhaseSeries(phase), obs.LatencyBuckets)
	}
	reg.Histogram(obs.MetricDocSeconds, obs.LatencyBuckets)
	reg.Histogram(obs.MetricTriageSeconds, obs.LatencyBuckets)
	reg.Histogram(obs.MetricJSCompileSeconds, obs.LatencyBuckets)
	reg.Histogram(obs.MetricDeepScanSeconds, obs.DeepScanBuckets)
}
