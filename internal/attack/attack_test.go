package attack

import (
	"strings"
	"testing"

	"pdfshield/internal/baseline"
	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/pdf"
	"pdfshield/internal/pipeline"
)

// instrumentOne builds and instruments a single-script document, returning
// the monitored source.
func instrumentOne(t *testing.T, script string) (string, *instrument.Result) {
	t.Helper()
	d := pdf.NewDocument()
	jsRef := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsRef})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d.Trailer["Root"] = catalog
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := instrument.NewRegistry("attackdet0001")
	ins := instrument.New(reg, instrument.Options{Seed: 77})
	res, err := ins.InstrumentBytes("attack-doc", raw)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := pdf.Parse(res.Output, pdf.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chains.Chains {
		if c.Triggered {
			return c.Source, res
		}
	}
	t.Fatal("no monitored chain")
	return "", nil
}

func TestSignatureKeySearchFindsMultipleCandidates(t *testing.T) {
	src, res := instrumentOne(t, "var x = 1;")
	candidates := SignatureKeySearch(src)
	if len(candidates) < 2 {
		t.Fatalf("key search found %d candidates, want >= 2 (real + decoys)", len(candidates))
	}
	real := res.Key.String()
	found := false
	for _, c := range candidates {
		if c == real {
			found = true
		}
	}
	if !found {
		t.Error("real key not among candidates (scan is sound, so it must be)")
	}
	// The point: the attacker cannot tell which candidate is real.
}

func TestFixedNameKeySearchFails(t *testing.T) {
	src, _ := instrumentOne(t, "var x = 1;")
	if hits := FixedNameKeySearch(src); len(hits) != 0 {
		t.Errorf("fixed-name search should find nothing, got %v", hits)
	}
}

func TestPatchOutMonitoringBreaksDecryption(t *testing.T) {
	src, _ := instrumentOne(t, "patched = 1;")
	patched := PatchOutMonitoring(src)
	if strings.Contains(patched, "SOAP.request") {
		t.Fatal("patcher left monitoring calls behind")
	}
	it := js.New()
	_, err := it.Run(patched)
	if err == nil {
		// Execution may "succeed" syntactically but the payload must not
		// have run.
		if v, ok := it.Global.Lookup("patched"); ok && v.Num() == 1 {
			t.Fatal("patched script executed the original payload without monitoring")
		}
	}
}

func TestUnpatchedMonitoredScriptRunsWithAck(t *testing.T) {
	src, _ := instrumentOne(t, "ran = 42;")
	it := js.New()
	soap := js.NewHostObject("SOAP")
	soap.Set("request", js.ObjectValue(js.NewHostFunc("request", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		resp := js.NewObject()
		resp.Set("status", js.StringValue("ok"))
		return js.ObjectValue(resp), nil
	})))
	it.Global.Declare("SOAP", js.ObjectValue(soap))
	if _, err := it.Run(src); err != nil {
		t.Fatal(err)
	}
	if v, _ := it.Global.Lookup("ran"); v.Num() != 42 {
		t.Errorf("ran = %v", v)
	}
}

func TestForgedExitTripsZeroTolerance(t *testing.T) {
	sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 8.0, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	// Malicious doc that forges an exit (guessed key) before exploiting.
	g := corpus.NewGenerator(500)
	mal, _ := g.MaliciousFamily("mal-geticon")
	doc, err := pdf.Parse(mal.Raw, pdf.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		t.Fatal(err)
	}
	body := chains.Chains[0].Source
	forged := ForgedExitScript(instrument.DefaultEndpoint,
		sys.Registry.DetectorID()+":000000000000000000000000", body)

	d2 := pdf.NewDocument()
	jsRef := d2.Add(pdf.String{Value: []byte(forged)})
	action := d2.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsRef})
	catalog := d2.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d2.Trailer["Root"] = catalog
	raw, err := pdf.Write(d2, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	v, err := sys.ProcessDocumentContext(t.Context(), "forger", raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Fatal("forged-message attacker not detected")
	}
	if v.Alert.Reason != "fake-message" {
		t.Errorf("alert reason = %q, want fake-message", v.Alert.Reason)
	}
}

func TestMimicryDefeatsStructuralButNotUs(t *testing.T) {
	// Train structural baselines on the standard corpus.
	g := corpus.NewGenerator(600)
	var trainB, trainM [][]byte
	for _, s := range g.BenignWithJS(50) {
		trainB = append(trainB, s.Raw)
	}
	for _, s := range g.MaliciousBatch(50) {
		trainM = append(trainM, s.Raw)
	}

	mimic := MimicrySample(601)
	if mimic.Family != "mal-mimicry" {
		t.Fatalf("mimicry build failed: %+v", mimic.Family)
	}

	evaded := 0
	for _, name := range []string{"structpath", "pdfrate"} {
		det, err := baseline.ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := det.Train(trainB, trainM); err != nil {
			t.Fatal(err)
		}
		got, err := det.Classify(mimic.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			evaded++
		}
	}
	if evaded == 0 {
		t.Error("mimicry evaded neither structural baseline (attack should work on at least one)")
	}

	// Our system still detects it: behaviour, not structure.
	sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 8.0, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	v, err := sys.ProcessDocumentContext(t.Context(), mimic.ID, mimic.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Fatalf("mimicry sample evaded the instrumented detector: %+v", v.Open)
	}
}
