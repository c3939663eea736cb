package experiments

import (
	"context"
	"fmt"
	"runtime"

	"pdfshield/internal/attack"
	"pdfshield/internal/baseline"
	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/ml"
	"pdfshield/internal/pdf"
	"pdfshield/internal/pipeline"
)

// paperTableIX holds the FP/TP the paper reports for each method.
var paperTableIX = map[string][2]string{
	"ngram":      {"31%", "84%"},
	"pjscan":     {"16%", "85%"},
	"pdfrate":    {"2%", "99%"},
	"structpath": {"0.05%", "99%"},
	"mdscan":     {"N/A", "89%"},
	"wepawet":    {"N/A", "68%"},
}

// TableIX regenerates the comparison with existing methods: each baseline
// trains on one corpus split and evaluates on another; "Ours" comes from
// the Table VIII accuracy (pass the same cfg to keep corpora comparable).
// An extension section evaluates everything on structural-mimicry samples.
func TableIX(cfg Config, ours Accuracy) Result {
	g := corpus.NewGenerator(cfg.seed() + 99)
	nTrain := cfg.scaled(600, 60)
	nTest := cfg.scaled(400, 40)

	var trainB, trainM, testB, testM [][]byte
	for _, s := range g.BenignWithJS(nTrain) {
		trainB = append(trainB, s.Raw)
	}
	for _, s := range g.MaliciousBatch(nTrain) {
		trainM = append(trainM, s.Raw)
	}
	for _, s := range g.BenignWithJS(nTest) {
		testB = append(testB, s.Raw)
	}
	for _, s := range g.MaliciousBatch(nTest) {
		testM = append(testM, s.Raw)
	}

	nMimic := cfg.scaled(100, 12)
	mimics := make([][]byte, 0, nMimic)
	for i := 0; i < nMimic; i++ {
		mimics = append(mimics, attack.MimicrySample(cfg.seed()+int64(i)*17).Raw)
	}

	table := Table{
		ID:    "Table IX",
		Title: "Comparison With Existing Methods",
		Headers: []string{
			"Method", "Paper FP", "Paper TP", "Measured FP", "Measured TP", "TP under mimicry [8]",
		},
	}

	detectors := baseline.All(cfg.seed())
	for _, det := range detectors {
		if err := det.Train(trainB, trainM); err != nil {
			continue
		}
		var c ml.Confusion
		for _, raw := range testB {
			got, err := det.Classify(raw)
			if err == nil {
				c.Observe(got, false)
			}
		}
		for _, raw := range testM {
			got, err := det.Classify(raw)
			if err == nil {
				c.Observe(got, true)
			}
		}
		mimicCaught := 0
		for _, raw := range mimics {
			if got, err := det.Classify(raw); err == nil && got {
				mimicCaught++
			}
		}
		paper := paperTableIX[det.Name()]
		table.Rows = append(table.Rows, []string{
			det.Name(), paper[0], paper[1],
			fmt.Sprintf("%.1f%%", c.FPR()*100),
			fmt.Sprintf("%.1f%%", c.TPR()*100),
			fmt.Sprintf("%d/%d", mimicCaught, len(mimics)),
		})
	}

	// Ours: Table VIII accuracy plus the mimicry pass through the live
	// pipeline.
	oursMimic := 0
	sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 8.0, Seed: cfg.seed() + 4})
	if err == nil {
		docs := make([]pipeline.BatchDoc, len(mimics))
		for i, raw := range mimics {
			docs[i] = pipeline.BatchDoc{ID: fmt.Sprintf("mimic-%d", i), Raw: raw}
		}
		for _, v := range sys.ProcessBatchContext(context.Background(), docs, pipeline.BatchOptions{Workers: cfg.workers()}).Verdicts {
			if v != nil && v.Malicious {
				oursMimic++
			}
		}
		_ = sys.Close()
	}
	table.Rows = append(table.Rows, []string{
		"ours", "0", "97%",
		fmt.Sprintf("%.1f%%", ours.FPRate()*100),
		fmt.Sprintf("%.1f%%", ours.DetectionRate()*100),
		fmt.Sprintf("%d/%d", oursMimic, len(mimics)),
	})
	table.Notes = append(table.Notes,
		"mimicry column: structural mimics of Maiorca et al. [8]; runtime behaviour unchanged",
		"expected shape: structural methods strong on the standard corpus but falling to mimicry; ours unaffected",
	)
	return Result{Tables: []Table{table}}
}

// tableXSizes are the paper's six size classes.
var tableXSizes = []struct {
	label string
	bytes int
	mal   bool
}{
	{"2 KB", 2 << 10, true},
	{"9 KB", 9 << 10, true},
	{"24 KB", 24 << 10, true},
	{"325 KB", 325 << 10, false},
	{"7.0 MB", 7 << 20, false},
	{"19.7 MB", 19*(1<<20) + 700*(1<<10), false},
}

// TableX regenerates the static analysis & instrumentation timing table.
func TableX(cfg Config) Result {
	g := corpus.NewGenerator(cfg.seed() + 10)
	table := Table{
		ID:      "Table X",
		Title:   "Execution Time (seconds) of Static Analysis & Instrumentation",
		Headers: []string{"PDF Size", "Parse & Decompress", "Feature Extraction", "Instrumentation", "Total"},
	}
	for _, sz := range tableXSizes {
		sample := g.Sized(sz.bytes, sz.mal)
		reg := instrument.NewRegistry("tablex-detector-0001")
		ins := instrument.New(reg, instrument.Options{Seed: cfg.seed()})
		res, err := ins.InstrumentBytes(sample.ID, sample.Raw)
		if err != nil {
			continue
		}
		t := res.Timing
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%s (actual %.1f KB)", sz.label, float64(len(sample.Raw))/1024),
			fmt.Sprintf("%.4f", t.ParseDecompress.Seconds()),
			fmt.Sprintf("%.4f", t.FeatureExtraction.Seconds()),
			fmt.Sprintf("%.4f", t.Instrumentation.Seconds()),
			fmt.Sprintf("%.4f", t.Total().Seconds()),
		})
	}
	table.Notes = append(table.Notes,
		"paper (2009-era laptop): 0.0444 s at 2 KB up to 5.4995 s at 19.7 MB; parse+decompress dominates at large sizes",
		"absolute numbers differ by hardware; the linear growth and phase dominance are the reproduced shape",
	)
	return Result{Tables: []Table{table}}
}

// TableXI regenerates the front-end memory overhead table.
func TableXI(cfg Config) Result {
	g := corpus.NewGenerator(cfg.seed() + 11)
	table := Table{
		ID:      "Table XI",
		Title:   "Memory Overhead of Static Analysis & Instrumentation",
		Headers: []string{"PDF Size", "# of PDF Objects", "Memory Consumption"},
	}
	for _, sz := range tableXSizes {
		sample := g.Sized(sz.bytes, sz.mal)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		doc, err := pdf.Parse(sample.Raw, pdf.ParseOptions{})
		if err != nil {
			continue
		}
		chains, err := pdf.ReconstructChains(doc)
		if err != nil {
			continue
		}
		_ = instrument.ExtractFeatures(doc, chains)
		runtime.ReadMemStats(&after)
		usedMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%s (actual %.1f KB)", sz.label, float64(len(sample.Raw))/1024),
			itoa(doc.Len()),
			fmt.Sprintf("%.2f MB", usedMB),
		})
	}
	table.Notes = append(table.Notes,
		"paper (Python front-end): 5.26 MB at 2 KB up to 130.6 MB at 19.7 MB (counting Python objects)",
		"memory grows with document size; small documents pay a near-constant floor",
	)
	return Result{Tables: []Table{table}}
}

// SecurityAnalysis regenerates the §IV adversary evaluation as a table of
// attack outcomes.
func SecurityAnalysis(cfg Config) Result {
	table := Table{
		ID:      "§IV",
		Title:   "Security Analysis: Advanced Attacks vs. Countermeasures",
		Headers: []string{"Attack", "Outcome", "Defense That Held"},
	}

	// 1. Signature-based key search.
	reg := instrument.NewRegistry("secdetector0001")
	ins := instrument.New(reg, instrument.Options{Seed: cfg.seed() + 12})
	sample := buildSingleScriptDoc("var x=1;")
	res, err := ins.InstrumentBytes("sec-doc", sample)
	keySearchRow := []string{"mimicry: key search", "error", ""}
	if err == nil {
		monitored := extractMonitored(res.Output)
		candidates := attack.SignatureKeySearch(monitored)
		fixed := attack.FixedNameKeySearch(monitored)
		keySearchRow = []string{
			"mimicry: signature key search",
			fmt.Sprintf("defeated (%d indistinguishable candidates, %d fixed-name hits)", len(candidates), len(fixed)),
			"random keys, decoy monitoring code, randomized identifiers",
		}
	}
	table.Rows = append(table.Rows, keySearchRow)

	// 2. Fake message (zero tolerance) — end to end.
	fakeOutcome := "error"
	sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 8.0, Seed: cfg.seed() + 13})
	if err == nil {
		forged := attack.ForgedExitScript(instrument.DefaultEndpoint,
			sys.Registry.DetectorID()+":deadbeefdeadbeefdeadbeef", "var y = 2;")
		v, perr := sys.ProcessDocumentContext(context.Background(), "forger", buildSingleScriptDoc(forged))
		if perr == nil && v.Malicious && v.Alert.Reason == "fake-message" {
			fakeOutcome = "detected immediately (alert reason: fake-message)"
		} else if perr == nil {
			fakeOutcome = fmt.Sprintf("NOT DETECTED (%+v)", v.Malicious)
		}
		_ = sys.Close()
	}
	table.Rows = append(table.Rows, []string{
		"mimicry: forged exit message", fakeOutcome, "zero tolerance to fake messages; active-document attribution",
	})

	// 3. Runtime patching.
	patchOutcome := "payload did not execute unmonitored"
	if err == nil && res != nil {
		monitored := extractMonitored(res.Output)
		patched := attack.PatchOutMonitoring(monitored)
		if runsPayload(patched) {
			patchOutcome = "ATTACK SUCCEEDED (payload ran without monitoring)"
		}
	}
	table.Rows = append(table.Rows, []string{
		"runtime patching of monitoring code", patchOutcome,
		"per-script encryption keyed on the enter acknowledgement",
	})

	// 4. Staged and delayed attacks (corpus families through the pipeline).
	for _, fam := range []string{"mal-staged", "mal-delayed", "mal-titlehidden"} {
		g := corpus.NewGenerator(cfg.seed() + 14)
		s, _ := g.MaliciousFamily(fam)
		outcome := "error"
		sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 8.0, Seed: cfg.seed() + 15})
		if err == nil {
			v, perr := sys.ProcessDocumentContext(context.Background(), s.ID, s.Raw)
			switch {
			case perr != nil:
				outcome = "error: " + perr.Error()
			case v.Malicious:
				outcome = "detected"
			default:
				outcome = "NOT DETECTED"
			}
			_ = sys.Close()
		}
		defense := "static rewriting of Table IV methods and timer parameters"
		if fam == "mal-titlehidden" {
			defense = "instrumentation is extraction-free; document context is live"
		}
		table.Rows = append(table.Rows, []string{"evasion family: " + fam, outcome, defense})
	}
	return Result{Tables: []Table{table}}
}

func buildSingleScriptDoc(script string) []byte {
	d := pdf.NewDocument()
	jsRef := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsRef})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d.Trailer["Root"] = catalog
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		panic(err)
	}
	return raw
}

func extractMonitored(raw []byte) string {
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return ""
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		return ""
	}
	for _, c := range chains.Chains {
		if c.Triggered && c.Source != "" {
			return c.Source
		}
	}
	return ""
}

// runsPayload executes a (patched) script in a bare interpreter with a
// permissive SOAP stub and reports whether the original payload ("var x=1;"
// in the security-analysis document) executed.
func runsPayload(src string) bool {
	it := js.New()
	soap := js.NewHostObject("SOAP")
	soap.Set("request", js.ObjectValue(js.NewHostFunc("request", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		resp := js.NewObject()
		resp.Set("status", js.StringValue("ok"))
		return js.ObjectValue(resp), nil
	})))
	it.Global.Declare("SOAP", js.ObjectValue(soap))
	_, _ = it.Run(src)
	v, ok := it.Global.Lookup("x")
	return ok && v.Num() == 1
}
