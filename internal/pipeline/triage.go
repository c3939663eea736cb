package pipeline

import (
	"strings"
	"time"

	"pdfshield/internal/detect"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/triage"
)

// runTriage executes the static triage tier for one submission at the
// production default configuration, records its telemetry (trace span,
// latency histogram, route counter, journal event) and returns the
// decision.
//
// Triage runs per submission, never from the front-end cache: the stage
// is cheap enough that caching it would only buy the cost of a map
// lookup, and running it fresh keeps the journal's per-document story
// complete (every submission gets its own TypeTriage event).
func (s *System) runTriage(docID string, raw []byte, res *instrument.Result, tr *obs.Trace) *triage.Decision {
	tr.MarkPhase(obs.PhaseTriage)
	start := time.Now()
	d := triage.Evaluate(triage.Config{}, raw, res)
	dur := time.Since(start)
	tr.AddSpan(obs.PhaseTriage, tr.Offset(start), dur)
	s.Obs.Observe(obs.MetricTriageSeconds, dur)
	s.Obs.Observe(obs.PhaseSeries(obs.PhaseTriage), dur)
	s.Obs.Inc(obs.Series(obs.MetricTriageRoutes, "route", string(d.Route)))
	s.journalTriage(docID, res, &d)
	return &d
}

// journalTriage records the routing decision for every submission (all
// three routes, so the stream shows why a document did or did not reach
// a reader). TypeTriage is non-canonical: replay determinism is keyed on
// the detector's event stream, which a statically routed document never
// produces.
func (s *System) journalTriage(docID string, res *instrument.Result, d *triage.Decision) {
	if s.opts.Journal == nil {
		return
	}
	e := journal.Event{T: journal.TypeTriage, DocID: docID}
	if res != nil {
		e.Key = res.Key.InstrKey
	}
	e.Triage = &journal.Triage{
		Route:     string(d.Route),
		Score:     d.Score,
		Signals:   d.Signals,
		Uncertain: d.Uncertain,
		Static:    d.Census.Static[:],
		Scripts:   d.Scripts,
	}
	s.opts.Journal.Append(e)
}

// verdictFromTriage synthesizes the verdict for a statically routed
// document. No reader session exists: the runtime features F6–F13 stay
// zero and the FeatureVector carries only the static F1–F5 slots.
//
//   - RouteBenign: the fast path. DeinstrumentBenign deliberately does
//     NOT apply here — the instrumented artifact was never opened, so
//     there is no monitored session whose end would trigger restoration,
//     and retiring the key would evict the cached front-end result the
//     fast path exists to reuse.
//   - RouteMalicious: convicted without an open (the strongest
//     confinement available — the exploit never runs). The synthesized
//     alert carries the triage score as its malscore and the signal list
//     as its cause, so journal and operator tooling render it like any
//     runtime alert.
//   - RouteUncertain (DepthStatic only — other depths escalate it): the
//     document stays unconvicted and the route annotation records that
//     static evidence was inconclusive.
func (s *System) verdictFromTriage(docID string, res *instrument.Result, d *triage.Decision, prof depthProfile) *Verdict {
	v := &Verdict{
		DocID:       docID,
		Instrument:  res,
		TriageRoute: string(d.Route),
		Triage:      d,
		Depth:       string(prof.depth),
	}
	for i := 0; i < len(d.Census.Static) && i < detect.NumFeatures; i++ {
		v.FeatureVector[i] = d.Census.Static[i]
	}
	if d.Route == triage.RouteMalicious {
		v.Malicious = true
		v.Alert = &detect.Alert{
			DocID:    docID,
			InstrKey: res.Key.InstrKey,
			Malscore: d.Score,
			Features: v.FeatureVector,
			Reason:   "triage-static",
			Cause:    strings.Join(d.Signals, ","),
		}
	}
	return v
}

// annotateTriage attaches an uncertain-route decision to the dynamic
// tier's verdict, so callers can tell a triage-vetted open from a
// triage-disabled one.
func annotateTriage(v *Verdict, d *triage.Decision) {
	if v == nil || d == nil {
		return
	}
	v.TriageRoute = string(d.Route)
	v.Triage = d
}
