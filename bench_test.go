package pdfshield_test

// Per-operation benchmarks behind the paper's cost tables — Table X
// (front-end time by document size), Table XI (front-end memory) and
// §V-D2 (monitored vs raw script execution) — plus component
// micro-benchmarks. The paper's tables themselves come from
// cmd/pdfshield-bench, verdicts are gated by TestDetectionGate, and
// end-to-end throughput is measured by perfbench (BENCHMARK.json).

import (
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/pdf"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
)

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
			if _, err := sess.Proc.Open("inst", res.Output, reader.OpenOptions{}); err != nil {
				b.Fatal(err)
			}
			sess.Close()
		}
	})
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
