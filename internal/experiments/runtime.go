package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/pdf"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
)

// Figure7 regenerates the JS-context memory consumption comparison: 30
// benign and 30 malicious (working-exploit) documents, each opened in a
// fresh reader, measuring Javascript-context memory consumption.
func Figure7(cfg Config) Result {
	g := corpus.NewGenerator(cfg.seed() + 7)
	const n = 30 // the paper's own sample size

	benign := g.BenignWithJS(n)
	var malicious []corpus.Sample
	for len(malicious) < n {
		s := g.Malicious()
		if s.Outcome == corpus.OutcomeExploit || s.Outcome == corpus.OutcomeCrash {
			malicious = append(malicious, s)
		}
	}

	measure := func(samples []corpus.Sample, version float64) []float64 {
		var out []float64
		for _, s := range samples {
			proc := reader.NewProcess(reader.Config{ViewerVersion: version})
			res, err := proc.Open(s.ID, s.Raw, reader.OpenOptions{})
			proc.Close()
			if err != nil {
				continue
			}
			out = append(out, res.JSHeapMB)
		}
		sort.Float64s(out)
		return out
	}
	benignMem := measure(benign, 9.0)
	malMem := measure(malicious, 8.0)

	fig := Series{
		ID:     "Figure 7",
		Title:  "Memory Consumption of Malicious and Benign Javascripts (JS-context)",
		XLabel: "sample index (sorted)",
		YLabel: "memory (MB)",
		Lines: []Line{
			indexLine("malicious", malMem),
			indexLine("benign", benignMem),
		},
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("malicious: avg %.1f MB, min %.1f, max %.1f (paper: avg 336.4, min 103, max >1700)",
			mean(malMem), minOf(malMem), maxOf(malMem)),
		fmt.Sprintf("benign: avg %.2f MB, max %.1f (paper: avg 7.1, max 21)", mean(benignMem), maxOf(benignMem)),
	)
	return Result{Figures: []Series{fig}}
}

func indexLine(name string, ys []float64) Line {
	line := Line{Name: name}
	for i, y := range ys {
		line.X = append(line.X, float64(i+1))
		line.Y = append(line.Y, y)
	}
	return line
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Figure8 regenerates the context-free measurement: reader memory while
// opening 1..20 copies of four documents of different sizes; one document
// triggers the reader's memory optimization.
func Figure8(cfg Config) Result {
	g := corpus.NewGenerator(cfg.seed() + 8)
	docs := []struct {
		name     string
		sizeMB   int
		optimize bool
	}{
		{"[3] 17MB report", 17, true},
		{"[5] 0.5MB paper", 0, false},
		{"[20] 8MB reference", 8, false},
		{"[29] 28MB spec", 28, false},
	}
	const copies = 20

	var lines []Line
	for _, d := range docs {
		size := d.sizeMB << 20
		if size == 0 {
			size = 512 << 10
		}
		sample := g.Sized(size, false)
		proc := reader.NewProcess(reader.Config{ViewerVersion: 9.0})
		line := Line{Name: d.name}
		for c := 1; c <= copies; c++ {
			res, err := proc.Open(fmt.Sprintf("%s-copy%d", d.name, c), sample.Raw, reader.OpenOptions{OptimizeHint: d.optimize})
			if err != nil {
				break
			}
			line.X = append(line.X, float64(c))
			line.Y = append(line.Y, res.MemAfterMB)
		}
		proc.Close()
		lines = append(lines, line)
	}
	fig := Series{
		ID:     "Figure 8",
		Title:  "Memory Consumption of PDF Reader When Opening Many Documents (context-free)",
		XLabel: "# of open copies",
		YLabel: "process memory (MB)",
		Lines:  lines,
		Notes: []string{
			"linear growth per copy; the optimization-hint document drops mid-way and climbs again (paper observed this for [3] at copy 15)",
			"a fixed context-free memory threshold cannot separate this from a heap spray",
		},
	}
	return Result{Figures: []Series{fig}}
}

// TableVIII regenerates the detection-accuracy evaluation: the full
// instrument-open-detect pipeline over benign-with-JS and malicious
// corpora.
func TableVIII(cfg Config) (Result, Accuracy) {
	g := corpus.NewGenerator(cfg.seed() + 88)
	nBenign := cfg.scaled(994, 40)
	nMal := cfg.scaled(1000, 40)

	var acc Accuracy

	// Benign pass on Acrobat 9.0.
	sysB, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: cfg.seed() + 1})
	if err != nil {
		return Result{}, acc
	}
	for _, v := range batchVerdicts(sysB, g.BenignWithJS(nBenign), cfg.workers()) {
		acc.BenignTotal++
		if v.Malicious {
			acc.BenignFlagged++
		}
	}
	_ = sysB.Close()

	// Malicious pass on Acrobat 8.0 (the version most samples target).
	sysM, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 8.0, Seed: cfg.seed() + 2})
	if err != nil {
		return Result{}, acc
	}
	for _, v := range batchVerdicts(sysM, g.MaliciousBatch(nMal), cfg.workers()) {
		acc.MalTotal++
		switch {
		case v.Malicious:
			acc.MalDetected++
		case isNoise(v):
			acc.MalNoise++
		default:
			acc.MalMissed++
		}
	}
	_ = sysM.Close()

	table := Table{
		ID:      "Table VIII",
		Title:   "Detection Results",
		Headers: []string{"Category", "Detected Malicious", "Detected Benign", "Noise", "Total"},
		Rows: [][]string{
			{"Benign Samples", itoa(acc.BenignFlagged), itoa(acc.BenignTotal - acc.BenignFlagged), "0", itoa(acc.BenignTotal)},
			{"Malicious Samples", itoa(acc.MalDetected), itoa(acc.MalMissed), itoa(acc.MalNoise), itoa(acc.MalTotal)},
		},
		Notes: []string{
			fmt.Sprintf("false positives: %d (paper: 0)", acc.BenignFlagged),
			fmt.Sprintf("detection rate on working samples: %.1f%% (paper: 97.3%% = 917/942)", 100*acc.DetectionRate()),
			fmt.Sprintf("noise (samples that did nothing): %.1f%% (paper: 5.8%% = 58/1000)", 100*float64(acc.MalNoise)/float64(maxInt(acc.MalTotal, 1))),
		},
	}
	return Result{Tables: []Table{table}}, acc
}

// batchVerdicts pushes a corpus slice through the worker-pool batch engine
// and returns the successful verdicts in input order (failed documents are
// skipped, matching the old per-document `continue` behaviour).
func batchVerdicts(sys *pipeline.System, samples []corpus.Sample, workers int) []*pipeline.Verdict {
	docs := make([]pipeline.BatchDoc, len(samples))
	for i, s := range samples {
		docs[i] = pipeline.BatchDoc{ID: s.ID, Raw: s.Raw}
	}
	res := sys.ProcessBatchContext(context.Background(), docs, pipeline.BatchOptions{Workers: workers})
	out := make([]*pipeline.Verdict, 0, len(samples))
	for _, v := range res.Verdicts {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// isNoise reports the paper's "did nothing when opened" condition.
func isNoise(v *pipeline.Verdict) bool {
	if v.Crashed || v.Malicious || v.Open == nil {
		return false
	}
	for _, e := range v.Open.Exploits {
		if e.Stage == reader.StageShellcode || e.Stage == reader.StageCrash {
			return false
		}
	}
	return v.Open.JSHeapMB < 100
}

// Accuracy aggregates Table VIII counts for reuse by Table IX.
type Accuracy struct {
	BenignTotal, BenignFlagged                 int
	MalTotal, MalDetected, MalMissed, MalNoise int
}

// DetectionRate is TP over working (non-noise) malicious samples.
func (a Accuracy) DetectionRate() float64 {
	working := a.MalTotal - a.MalNoise
	if working <= 0 {
		return 0
	}
	return float64(a.MalDetected) / float64(working)
}

// FPRate is FP over benign samples.
func (a Accuracy) FPRate() float64 {
	if a.BenignTotal == 0 {
		return 0
	}
	return float64(a.BenignFlagged) / float64(a.BenignTotal)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RuntimeOverhead regenerates the §V-D2 measurement: execution-time
// overhead of the context monitoring code for documents with 1..20
// separately invoked scripts.
func RuntimeOverhead(cfg Config) Result {
	const maxScripts = 20
	script := `var acc = 0; for (var i = 0; i < 2000; i++) acc += i; acc;`

	buildDoc := func(k int) []byte {
		d := pdf.NewDocument()
		var refs []pdf.Ref
		for i := 0; i < k; i++ {
			jsRef := d.Add(pdf.String{Value: []byte(script)})
			refs = append(refs, d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsRef}))
		}
		catalog := pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": refs[0]}
		if k > 1 {
			var nameArr pdf.Array
			for i, r := range refs[1:] {
				nameArr = append(nameArr, pdf.String{Value: []byte(fmt.Sprintf("s%d", i))}, r)
			}
			tree := d.Add(pdf.Dict{"Names": nameArr})
			catalog["Names"] = d.Add(pdf.Dict{"JavaScript": tree})
		}
		d.Trailer["Root"] = d.Add(catalog)
		raw, err := pdf.Write(d, pdf.WriteOptions{})
		if err != nil {
			panic(err)
		}
		return raw
	}

	timeOpen := func(raw []byte, instrumented bool) (time.Duration, error) {
		if !instrumented {
			proc := reader.NewProcess(reader.Config{ViewerVersion: 9.0})
			defer proc.Close()
			start := time.Now()
			_, err := proc.Open("raw", raw, reader.OpenOptions{})
			return time.Since(start), err
		}
		sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: cfg.seed() + 3})
		if err != nil {
			return 0, err
		}
		defer func() { _ = sys.Close() }()
		res, err := sys.Instrumenter.InstrumentBytes("inst", raw)
		if err != nil {
			return 0, err
		}
		sess := sys.NewSession()
		defer sess.Close()
		start := time.Now()
		_, err = sess.Open(res, reader.OpenOptions{})
		return time.Since(start), err
	}

	line := Line{Name: "slowdown"}
	var oneScript float64
	for k := 1; k <= maxScripts; k++ {
		raw := buildDoc(k)
		base, err1 := timeOpen(raw, false)
		inst, err2 := timeOpen(raw, true)
		if err1 != nil || err2 != nil {
			continue
		}
		delta := (inst - base).Seconds()
		if delta < 0 {
			delta = 0
		}
		if k == 1 {
			oneScript = delta
		}
		line.X = append(line.X, float64(k))
		line.Y = append(line.Y, delta)
	}
	fig := Series{
		ID:     "§V-D2",
		Title:  "Runtime Overhead of Context Monitoring Code",
		XLabel: "# of instrumented scripts",
		YLabel: "added seconds",
		Lines:  []Line{line},
		Notes: []string{
			fmt.Sprintf("single-script slowdown: %.4f s (paper: 0.093 s)", oneScript),
			fmt.Sprintf("20-script slowdown: %.3f s (paper: < 2 s)", lastOf(line.Y)),
			"growth is approximately linear in the number of instrumented scripts",
		},
	}
	return Result{Figures: []Series{fig}}
}

func lastOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
