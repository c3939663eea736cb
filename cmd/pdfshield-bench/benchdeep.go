package main

// The forced-execution deep-scan section of the -json benchmark (schema
// pdfshield-bench/5). The corpus is the evasive population the deep tier
// exists for: working exploits hidden behind gates that evaluate false
// in any single-execution sandbox (time bombs, locale fingerprints,
// emulation checks). The section records the detection uplift of deep
// over standard depth, the explored path counts per document, and the
// p50 wall-clock cost of a deep open relative to a standard one — the
// price/coverage trade-off an operator chooses -depth with.

import (
	"context"
	"fmt"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
)

// deepBenchSeedsPerKind is how many seeds of each evasive family the
// section scans (distinct spray/gate randomizations of the same
// technique).
const deepBenchSeedsPerKind = 3

// benchDeepDoc is one evasive document's outcome at deep depth.
type benchDeepDoc struct {
	ID       string `json:"id"`
	Family   string `json:"family"`
	Paths    int    `json:"paths"`
	Detected bool   `json:"detected"`
}

// benchDeepScan is the deep-scan section of a schema/5 record.
type benchDeepScan struct {
	Docs int `json:"docs"`
	// DetectedStandard/DetectedDeep count convictions of the same evasive
	// corpus at each depth; the delta is the forced-execution uplift.
	DetectedStandard int     `json:"detected_standard"`
	DetectedDeep     int     `json:"detected_deep"`
	StandardRate     float64 `json:"standard_rate"`
	DeepRate         float64 `json:"deep_rate"`
	// StandardP50Us/DeepP50Us are per-document end-to-end p50 over the
	// corpus at each depth; CostRatio is deep/standard.
	StandardP50Us float64 `json:"standard_p50_us"`
	DeepP50Us     float64 `json:"deep_p50_us"`
	CostRatio     float64 `json:"cost_ratio"`
	// PerDoc is the deep pass per document: family, explored paths,
	// verdict.
	PerDoc []benchDeepDoc `json:"per_doc"`
}

// deepBenchCorpus builds the evasive corpus: every gated family at
// several seeds. Each seed replica starts a fresh generator, which numbers
// its samples from 1 again, so the replica index is suffixed to keep doc
// IDs unique (exemplars, ?doc= filters and journal correlation key on
// them).
func deepBenchCorpus(seed int64) []corpus.Sample {
	var out []corpus.Sample
	for i, kind := range corpus.EvasiveKinds() {
		for r := 0; r < deepBenchSeedsPerKind; r++ {
			s, ok := corpus.NewGenerator(seed + int64(100*i+r)).Evasive(kind)
			if !ok {
				panic("bench: unknown evasive kind " + kind)
			}
			s.ID = fmt.Sprintf("%s-r%d", s.ID, r)
			out = append(out, s)
		}
	}
	return out
}

// runDeepPass scans the corpus at one depth on a fresh system, returning
// per-document verdict/path data and durations.
func runDeepPass(samples []corpus.Sample, seed int64, depth pipeline.Depth) ([]benchDeepDoc, []time.Duration, error) {
	sys, err := pipeline.NewSystem(pipeline.Options{
		ViewerVersion: 9.0, Seed: seed, Obs: obs.NewRegistry(), Depth: depth,
	})
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = sys.Close() }()
	docs := make([]benchDeepDoc, 0, len(samples))
	durs := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		start := time.Now()
		v, err := sys.ProcessDocumentContext(context.Background(), s.ID, s.Raw)
		if err != nil {
			return nil, nil, fmt.Errorf("%s at depth %s: %w", s.ID, depth, err)
		}
		durs = append(durs, time.Since(start))
		d := benchDeepDoc{ID: s.ID, Family: s.Family, Detected: v.Malicious}
		if v.Open != nil {
			d.Paths = v.Open.DeepPaths
		}
		docs = append(docs, d)
	}
	return docs, durs, nil
}

// runDeepScanBench measures the same evasive corpus at standard and deep
// depth.
func runDeepScanBench(seed int64) (*benchDeepScan, error) {
	samples := deepBenchCorpus(seed)
	std, stdDurs, err := runDeepPass(samples, seed, pipeline.DepthStandard)
	if err != nil {
		return nil, fmt.Errorf("standard pass: %w", err)
	}
	deep, deepDurs, err := runDeepPass(samples, seed, pipeline.DepthDeep)
	if err != nil {
		return nil, fmt.Errorf("deep pass: %w", err)
	}
	sec := &benchDeepScan{Docs: len(samples), PerDoc: deep}
	for _, d := range std {
		if d.Detected {
			sec.DetectedStandard++
		}
	}
	for _, d := range deep {
		if d.Detected {
			sec.DetectedDeep++
		}
	}
	if sec.Docs > 0 {
		sec.StandardRate = float64(sec.DetectedStandard) / float64(sec.Docs)
		sec.DeepRate = float64(sec.DetectedDeep) / float64(sec.Docs)
	}
	sec.StandardP50Us = pctUS(stdDurs, 0.5)
	sec.DeepP50Us = pctUS(deepDurs, 0.5)
	if sec.StandardP50Us > 0 {
		sec.CostRatio = sec.DeepP50Us / sec.StandardP50Us
	}
	return sec, nil
}
