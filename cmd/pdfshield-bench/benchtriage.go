package main

// Triage section of the -json benchmark (schema pdfshield-bench/4): the
// same mixed, majority-confident-benign corpus is run end to end through
// the full pipeline twice — triage off at DepthStandard (every document
// opens in a reader) and triage on at DepthAuto (confident documents route
// around the sandbox, uncertain ones escalate to a deep scan) — and the
// routing split, per-route latency and throughput ratio are recorded.
// The pass double-checks the tier's safety contract while measuring it:
// no malicious-labelled document may route confident-benign, and no
// document convicted by the dynamic tier may lose its conviction.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/triage"
)

// benchTriage is the committed triage section.
type benchTriage struct {
	// Docs / BenignJS / MaliciousDocs describe the mixed corpus: benign
	// JS-bearing carriers (the confident-benign majority a scanning tier
	// sees) plus a malicious minority.
	Docs          int `json:"docs"`
	BenignJS      int `json:"benign_js"`
	MaliciousDocs int `json:"malicious_docs"`
	// Off and On are the end-to-end serial passes at DepthStandard and
	// DepthAuto (fastest of benchTriageReps).
	Off benchTriagePass `json:"off"`
	On  benchTriagePass `json:"on"`
	// Routes is the triage-on pass's routing split with per-route p50
	// end-to-end latency.
	Routes []benchTriageRoute `json:"routes"`
	// Speedup is On vs Off end-to-end throughput.
	Speedup float64 `json:"speedup"`
	// MaliciousRoutedBenign counts malicious-labelled documents that took
	// the fast path; anything but zero fails the benchmark.
	MaliciousRoutedBenign int `json:"malicious_routed_benign"`
}

// benchTriagePass summarizes one end-to-end serial pass.
type benchTriagePass struct {
	Docs       int     `json:"docs"`
	Failed     int     `json:"failed"`
	Malicious  int     `json:"malicious"`
	Seconds    float64 `json:"seconds"`
	DocsPerSec float64 `json:"docs_per_sec"`
}

// benchTriageRoute is one route's share of the triage-on pass.
type benchTriageRoute struct {
	Route string  `json:"route"`
	Docs  int     `json:"docs"`
	P50Us float64 `json:"p50_us"`
}

// triageDocOutcome is one document's result within a pass.
type triageDocOutcome struct {
	route     string
	malicious bool
	dur       time.Duration
}

// benchTriageReps mirrors the batch passes' min-of-N discipline; the
// fastest rep is recorded for both configurations.
const benchTriageReps = 5

// benchTriageCorpus builds the mixed population: a confident-benign
// majority of JS-bearing carriers (forms, navigation, multi-script — with
// the usual encrypted/SOAP uncertain tail) plus a malicious minority
// drawn from the family mix. Returns the docs and the malicious ID set.
func benchTriageCorpus(seed int64) ([]pipeline.BatchDoc, map[string]bool, int) {
	g := corpus.NewGenerator(seed)
	var docs []pipeline.BatchDoc
	benignJS := 0
	for _, s := range g.BenignWithJS(40) {
		docs = append(docs, pipeline.BatchDoc{ID: s.ID, Raw: s.Raw})
		benignJS++
	}
	malicious := make(map[string]bool)
	for _, s := range g.MaliciousBatch(8) {
		docs = append(docs, pipeline.BatchDoc{ID: s.ID, Raw: s.Raw})
		malicious[s.ID] = true
	}
	return docs, malicious, benignJS
}

// runTriagePass processes the corpus serially end to end at the given
// depth (each document pays its full pipeline cost, including the reader
// session unless triage routes around it) and returns the pass summary
// plus per-document outcomes.
func runTriagePass(docs []pipeline.BatchDoc, seed int64, depth pipeline.Depth) (benchTriagePass, map[string]triageDocOutcome, error) {
	var pass benchTriagePass
	sys, err := pipeline.NewSystem(pipeline.Options{
		ViewerVersion: 9.0, Seed: seed, Obs: obs.NewRegistry(), Depth: depth,
	})
	if err != nil {
		return pass, nil, err
	}
	defer func() { _ = sys.Close() }()

	out := make(map[string]triageDocOutcome, len(docs))
	start := time.Now()
	for _, d := range docs {
		t0 := time.Now()
		v, err := sys.ProcessDocumentContext(context.Background(), d.ID, d.Raw)
		dur := time.Since(t0)
		pass.Docs++
		if err != nil {
			pass.Failed++
			continue
		}
		if v.Malicious {
			pass.Malicious++
		}
		out[d.ID] = triageDocOutcome{route: v.TriageRoute, malicious: v.Malicious, dur: dur}
	}
	pass.Seconds = time.Since(start).Seconds()
	pass.DocsPerSec = float64(pass.Docs) / pass.Seconds
	return pass, out, nil
}

// runTriageBench measures the tier: both configurations over the same
// corpus, fastest of benchTriageReps each, with the safety cross-checks
// on the triage-on outcomes.
func runTriageBench(seed int64) (*benchTriage, error) {
	docs, malicious, benignJS := benchTriageCorpus(seed)
	sec := &benchTriage{Docs: len(docs), BenignJS: benignJS, MaliciousDocs: len(malicious)}

	var offOutcomes, onOutcomes map[string]triageDocOutcome
	for rep := 0; rep < benchTriageReps; rep++ {
		off, offOut, err := runTriagePass(docs, seed, pipeline.DepthStandard)
		if err != nil {
			return nil, fmt.Errorf("triage-off pass: %w", err)
		}
		on, onOut, err := runTriagePass(docs, seed, pipeline.DepthAuto)
		if err != nil {
			return nil, fmt.Errorf("triage-on pass: %w", err)
		}
		if rep == 0 || off.Seconds < sec.Off.Seconds {
			sec.Off = off
			offOutcomes = offOut
		}
		if rep == 0 || on.Seconds < sec.On.Seconds {
			sec.On = on
			onOutcomes = onOut
		}
	}
	if sec.Off.Failed > 0 || sec.On.Failed > 0 {
		return nil, fmt.Errorf("triage bench failures: off %d, on %d", sec.Off.Failed, sec.On.Failed)
	}
	if sec.Off.DocsPerSec > 0 {
		sec.Speedup = sec.On.DocsPerSec / sec.Off.DocsPerSec
	}

	// Safety cross-checks: the fast path must never carry a malicious-
	// labelled document, and the tier must never lose a dynamic conviction
	// (it may add static ones — version-gated samples that do nothing when
	// opened still carry their exploit statically).
	byRoute := make(map[string][]time.Duration)
	for id, o := range onOutcomes {
		byRoute[o.route] = append(byRoute[o.route], o.dur)
		if malicious[id] && o.route == string(triage.RouteBenign) {
			sec.MaliciousRoutedBenign++
		}
		if off, ok := offOutcomes[id]; ok && off.malicious && !o.malicious {
			return nil, fmt.Errorf("triage dropped a conviction: %s (route %s)", id, o.route)
		}
	}
	if sec.MaliciousRoutedBenign > 0 {
		return nil, fmt.Errorf("%d malicious documents routed confident-benign", sec.MaliciousRoutedBenign)
	}
	for _, route := range []string{"benign", "malicious", "uncertain", ""} {
		durs := byRoute[route]
		if len(durs) == 0 {
			continue
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		name := route
		if name == "" {
			name = "(no-triage)"
		}
		sec.Routes = append(sec.Routes, benchTriageRoute{
			Route: name,
			Docs:  len(durs),
			P50Us: float64(durs[len(durs)/2]) / float64(time.Microsecond),
		})
	}
	return sec, nil
}
