package pdfshield_test

// One benchmark per table and figure of the paper's evaluation (§V), plus
// component micro-benchmarks. The heavyweight experiment benchmarks run one
// scaled-down evaluation per iteration and attach the headline numbers as
// custom metrics, so `go test -bench=. -benchmem` regenerates every result
// the paper reports. Run cmd/pdfshield-bench for full-scale, rendered
// tables.

import (
	"fmt"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/experiments"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/pdf"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
)

// benchCfg keeps per-iteration cost manageable; scale up via
// cmd/pdfshield-bench -scale.
var benchCfg = experiments.Config{Scale: 0.02, Seed: 99}

func BenchmarkTableV_Dataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TableV(benchCfg)
		if len(res.Tables) == 0 {
			b.Fatal("no table")
		}
	}
}

func BenchmarkFigure6_JSChainRatioCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6(benchCfg)
		if len(res.Figures[0].Lines) != 2 {
			b.Fatal("missing lines")
		}
	}
}

func BenchmarkTableVI_StaticFeatureStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TableVI(benchCfg)
		if len(res.Tables[0].Rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFigure7_JSContextMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(benchCfg)
	}
}

func BenchmarkFigure8_ContextFreeMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure8(benchCfg)
	}
}

func BenchmarkTableVIII_DetectionAccuracy(b *testing.B) {
	var acc experiments.Accuracy
	for i := 0; i < b.N; i++ {
		_, acc = experiments.TableVIII(benchCfg)
	}
	b.ReportMetric(acc.DetectionRate()*100, "TP%")
	b.ReportMetric(acc.FPRate()*100, "FP%")
}

func BenchmarkTableIX_BaselineComparison(b *testing.B) {
	_, acc := experiments.TableVIII(benchCfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.TableIX(benchCfg, acc)
		if len(res.Tables[0].Rows) < 7 {
			b.Fatal("missing baselines")
		}
	}
}

func BenchmarkTableX_StaticTime(b *testing.B) {
	// The real per-operation measurement behind Table X: front-end
	// instrumentation across size classes.
	g := corpus.NewGenerator(4)
	for _, sz := range []struct {
		name  string
		bytes int
	}{
		{"2KB", 2 << 10},
		{"24KB", 24 << 10},
		{"325KB", 325 << 10},
		{"7MB", 7 << 20},
	} {
		sample := g.Sized(sz.bytes, false)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(sample.Raw)))
			for i := 0; i < b.N; i++ {
				reg := instrument.NewRegistry("benchdetector01")
				ins := instrument.New(reg, instrument.Options{Seed: 1})
				if _, err := ins.InstrumentBytes(sample.ID, sample.Raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableXI_StaticMemory(b *testing.B) {
	g := corpus.NewGenerator(5)
	sample := g.Sized(325<<10, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc, err := pdf.Parse(sample.Raw, pdf.ParseOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pdf.ReconstructChains(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeOverhead_PerScript(b *testing.B) {
	// §V-D2: monitored vs raw execution of a one-script document.
	g := corpus.NewGenerator(6)
	sample := g.BenignFormJS()

	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			proc := reader.NewProcess(reader.Config{ViewerVersion: 9.0})
			if _, err := proc.Open("raw", sample.Raw, reader.OpenOptions{}); err != nil {
				b.Fatal(err)
			}
			proc.Close()
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = sys.Close() }()
		res, err := sys.Instrumenter.InstrumentBytes("inst", sample.Raw)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess := sys.NewSession()
			if _, err := sess.OpenRaw("inst", res.Output, reader.OpenOptions{}); err != nil {
				b.Fatal(err)
			}
			sess.Close()
		}
	})
}

func BenchmarkSecurityAnalysis_Evasion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.SecurityAnalysis(benchCfg)
		if len(res.Tables[0].Rows) < 5 {
			b.Fatal("missing attacks")
		}
	}
}

// ---- batch engine benchmarks ----

// batchBenchDocs builds a deterministic mixed corpus (malicious / benign
// with JS / benign without JS) for the batch benchmarks.
func batchBenchDocs(n int) []pipeline.BatchDoc {
	g := corpus.NewGenerator(4242)
	docs := make([]pipeline.BatchDoc, 0, n)
	for len(docs) < n {
		var s corpus.Sample
		switch len(docs) % 3 {
		case 0:
			s = g.Malicious()
		case 1:
			s = g.BenignWithJS(1)[0]
		default:
			s = g.BenignText(20 << 10)
		}
		docs = append(docs, pipeline.BatchDoc{ID: fmt.Sprintf("bench-%03d-%s", len(docs), s.ID), Raw: s.Raw})
	}
	return docs
}

// BenchmarkProcessBatch measures the worker-pool pipeline at several pool
// widths, reporting docs/sec. Workers reuse sessions (one recycled reader
// process each), so wider pools also amortize process spawn + hook
// connection setup. On a single-CPU host the speedup from width alone is
// bounded; session reuse still helps.
func BenchmarkProcessBatch(b *testing.B) {
	docs := batchBenchDocs(24)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh system per iteration: the registry enforces the
				// paper's no-duplicate-instrumentation rule by content
				// hash, so one system cannot re-process the same corpus.
				// Setup stays outside the timed region.
				b.StopTimer()
				sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: 99})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res := sys.ProcessBatchContext(b.Context(), docs, pipeline.BatchOptions{Workers: workers})
				if n := res.Failed(); n != 0 {
					for j, err := range res.Errors {
						if err != nil {
							b.Fatalf("%d documents failed; first: %s: %v", n, docs[j].ID, err)
						}
					}
				}
				b.StopTimer()
				_ = sys.Close()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/sec")
		})
	}
}

// BenchmarkParseReuse measures the allocation-pooled parse/serialize round
// trip (sync.Pool buffers in the lexer, filters and writer). Run with
// -benchmem to see the pooled allocation profile.
func BenchmarkParseReuse(b *testing.B) {
	g := corpus.NewGenerator(7)
	sample := g.BenignText(256 << 10)
	b.SetBytes(int64(len(sample.Raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc, err := pdf.Parse(sample.Raw, pdf.ParseOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pdf.Write(doc, pdf.WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- component micro-benchmarks ----

func BenchmarkComponentPDFParse(b *testing.B) {
	g := corpus.NewGenerator(7)
	sample := g.BenignText(256 << 10)
	b.SetBytes(int64(len(sample.Raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pdf.Parse(sample.Raw, pdf.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponentJSInterp(b *testing.B) {
	src := `
var total = 0;
for (var i = 0; i < 1000; i++) { total += i * 2; }
var s = "x";
for (var j = 0; j < 6; j++) s += s;
total + s.length;
`
	prog, err := js.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := js.New()
		if _, err := it.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponentMonitorDecrypt(b *testing.B) {
	// Full monitored-script round trip: instrumentation + execution with
	// SOAP stubs (the paper's 0.093 s/script path).
	d := pdf.NewDocument()
	jsRef := d.Add(pdf.String{Value: []byte("var r = 1 + 2;")})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsRef})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d.Trailer["Root"] = catalog
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	reg := instrument.NewRegistry("benchdetector02")
	ins := instrument.New(reg, instrument.Options{Seed: 2})
	res, err := ins.InstrumentBytes("bench", raw)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := pdf.Parse(res.Output, pdf.ParseOptions{})
	if err != nil {
		b.Fatal(err)
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		b.Fatal(err)
	}
	monitored := chains.Chains[0].Source

	prog, err := js.Parse(monitored)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		it := js.New()
		soap := js.NewHostObject("SOAP")
		soap.Set("request", js.ObjectValue(js.NewHostFunc("request", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
			resp := js.NewObject()
			resp.Set("status", js.StringValue("ok"))
			return js.ObjectValue(resp), nil
		})))
		it.Global.Declare("SOAP", js.ObjectValue(soap))
		if _, err := it.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}
