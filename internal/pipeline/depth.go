package pipeline

import (
	"fmt"
	"time"

	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/reader"
)

// Depth selects how hard one submission is scanned. It is the single
// depth-axis knob of the pipeline: each depth fixes which tiers (static
// triage, natural open, forced execution) a submission passes through.
type Depth string

const (
	// DepthStatic runs the static triage tier only: every submission gets
	// a verdict from the census scorer and no reader session is ever
	// created — uncertain documents are scored on their static signals
	// instead of escalating. The cheapest tier, for pre-filter passes.
	DepthStatic Depth = "static"
	// DepthStandard is the classic single-execution dynamic scan: each
	// document opens once in a monitored reader and the detector judges
	// the natural execution path. The default when no depth is set.
	DepthStandard Depth = "standard"
	// DepthDeep forces execution of every document: conditional branches
	// are explored on both arms (bounded by the js.DefaultForce*
	// budgets), runtime features are unioned across all explored paths,
	// and triage is bypassed so nothing is judged on static evidence
	// alone.
	DepthDeep Depth = "deep"
	// DepthAuto routes by triage: confident documents are judged
	// statically, and everything uncertain escalates straight to a
	// forced-execution deep scan. The recommended production setting —
	// deep-scan cost is paid only where static analysis is blind.
	DepthAuto Depth = "auto"
)

// ParseDepth validates a depth name from a flag or request field. The
// empty string is accepted and means "unset" (inherit the system depth,
// DepthStandard by default).
func ParseDepth(s string) (Depth, error) {
	switch d := Depth(s); d {
	case "", DepthStatic, DepthStandard, DepthDeep, DepthAuto:
		return d, nil
	default:
		return "", fmt.Errorf("unknown scan depth %q (want static, standard, deep or auto)", s)
	}
}

// Valid reports whether d is one of the four named depths.
func (d Depth) Valid() bool {
	switch d {
	case DepthStatic, DepthStandard, DepthDeep, DepthAuto:
		return true
	}
	return false
}

func (d Depth) String() string { return string(d) }

// depthProfile is one submission's resolved scan plan: whether the
// static triage tier gates the open, whether the verdict must be
// synthesized statically, and which forced-execution bounds apply to the
// reader open (nil = natural single execution).
type depthProfile struct {
	depth      Depth
	triage     bool
	staticOnly bool
	force      *js.ForceConfig
}

// depthProfile resolves the scan plan of every submission from
// Options.Depth; unset is DepthStandard.
func (s *System) depthProfile() depthProfile {
	switch s.opts.Depth {
	case DepthStatic:
		return depthProfile{depth: DepthStatic, triage: true, staticOnly: true}
	case DepthDeep:
		return depthProfile{depth: DepthDeep, force: &js.ForceConfig{}}
	case DepthAuto:
		return depthProfile{depth: DepthAuto, triage: true, force: &js.ForceConfig{}}
	default:
		return depthProfile{depth: DepthStandard}
	}
}

// recordDeepScan publishes one deep open's forced-execution accounting:
// the path counter, the whole-open latency histogram, the
// budget-exhausted counter, and the (non-canonical) journal event.
func (s *System) recordDeepScan(docID string, res *instrument.Result, open *reader.OpenResult, dur time.Duration) {
	if open == nil {
		return
	}
	s.Obs.CounterAdd(obs.MetricDeepScanPaths, uint64(open.DeepPaths))
	// Deep opens use the widened DeepScanBuckets bounds (a forced open
	// routinely exceeds the default 10s ceiling).
	s.Obs.Histogram(obs.MetricDeepScanSeconds, obs.DeepScanBuckets).ObserveDuration(dur)
	if open.DeepBudgetExhausted > 0 {
		s.Obs.CounterAdd(obs.MetricDeepScanBudget, uint64(open.DeepBudgetExhausted))
	}
	if s.opts.Journal == nil {
		return
	}
	e := journal.Event{T: journal.TypeDeepScan, DocID: docID}
	if res != nil {
		e.Key = res.Key.InstrKey
	}
	e.DeepScan = &journal.DeepScan{
		Paths:           open.DeepPaths,
		CrashedPaths:    open.DeepCrashedPaths,
		BudgetExhausted: open.DeepBudgetExhausted,
	}
	s.opts.Journal.Append(e)
}
