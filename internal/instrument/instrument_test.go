package instrument

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pdfshield/internal/js"
	"pdfshield/internal/pdf"
	"pdfshield/internal/reader"
	"pdfshield/internal/soapsrv"
)

func newTestInstrumenter(t *testing.T) (*Instrumenter, *Registry) {
	t.Helper()
	reg := NewRegistry("testdetector01")
	ins := New(reg, Options{Seed: 42})
	return ins, reg
}

// buildDocBytes builds a minimal triggered-JS document and serializes it.
func buildDocBytes(t *testing.T, script string) []byte {
	t.Helper()
	d := pdf.NewDocument()
	raw, filterObj, err := pdf.EncodeChain([]pdf.Name{pdf.FilterFlate}, []byte(script))
	if err != nil {
		t.Fatal(err)
	}
	jsData := d.Add(&pdf.Stream{Dict: pdf.Dict{"Filter": filterObj}, Raw: raw})
	action := d.Add(pdf.Dict{"Type": pdf.Name("Action"), "S": pdf.Name("JavaScript"), "JS": jsData})
	page := d.Add(pdf.Dict{"Type": pdf.Name("Page")})
	pages := d.Add(pdf.Dict{"Type": pdf.Name("Pages"), "Kids": pdf.Array{page}, "Count": pdf.Integer(1)})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "Pages": pages, "OpenAction": action})
	d.Trailer["Root"] = catalog
	data, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// soapRecorder installs a SOAP host object into an interpreter and records
// Notify-like calls.
type soapRecord struct {
	Event string
	Key   string
	Seq   int
}

func installSOAP(it *js.Interp) *[]soapRecord {
	var records []soapRecord
	soap := js.NewHostObject("SOAP")
	soap.Set("request", js.ObjectValue(js.NewHostFunc("request", func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		if len(args) == 0 || args[0].Object() == nil {
			return js.Undefined(), nil
		}
		req := args[0].Object()
		oreqV, _ := req.GetOwn("oRequest")
		oreq := oreqV.Object()
		if oreq == nil {
			return js.Undefined(), nil
		}
		ev, _ := oreq.GetOwn("Event")
		key, _ := oreq.GetOwn("Key")
		seq, _ := oreq.GetOwn("Seq")
		records = append(records, soapRecord{Event: ev.Str(), Key: key.Str(), Seq: int(seq.Num())})
		resp := js.NewObject()
		resp.Set("status", js.StringValue("ok"))
		return js.ObjectValue(resp), nil
	})))
	it.Global.Declare("SOAP", js.ObjectValue(soap))
	return &records
}

func extractScriptFromResult(t *testing.T, res *Result) string {
	t.Helper()
	doc, err := pdf.Parse(res.Output, pdf.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chains.Chains {
		if c.Triggered && c.Source != "" {
			return c.Source
		}
	}
	t.Fatal("no triggered script in instrumented output")
	return ""
}

func TestInstrumentAndExecuteMonitoredScript(t *testing.T) {
	ins, _ := newTestInstrumenter(t)
	original := "var out = 6*7; probe(out);"
	raw := buildDocBytes(t, original)

	res, err := ins.InstrumentBytes("doc1", raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScriptsInstrumented != 1 {
		t.Fatalf("ScriptsInstrumented = %d", res.ScriptsInstrumented)
	}
	monitored := extractScriptFromResult(t, res)
	if strings.Contains(monitored, "6*7") {
		t.Error("original code visible in monitored script (encryption missing)")
	}

	it := js.New()
	records := installSOAP(it)
	var probed float64
	it.Global.Declare("probe", js.ObjectValue(js.NewHostFunc("probe", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		probed = args[0].Num()
		return js.Undefined(), nil
	})))

	if _, err := it.Run(monitored); err != nil {
		t.Fatalf("monitored script failed: %v", err)
	}
	if probed != 42 {
		t.Errorf("original behaviour lost: probe=%v", probed)
	}
	if len(*records) != 2 {
		t.Fatalf("SOAP records = %d, want 2", len(*records))
	}
	if (*records)[0].Event != "enter" || (*records)[1].Event != "exit" {
		t.Errorf("events = %+v", *records)
	}
	wantKey := res.Key.String()
	if (*records)[0].Key != wantKey || (*records)[1].Key != wantKey {
		t.Errorf("keys = %+v, want %s", *records, wantKey)
	}
}

func TestMonitorExitRunsEvenWhenScriptThrows(t *testing.T) {
	ins, _ := newTestInstrumenter(t)
	raw := buildDocBytes(t, "throw 'exploit failed';")
	res, err := ins.InstrumentBytes("doc-throw", raw)
	if err != nil {
		t.Fatal(err)
	}
	monitored := extractScriptFromResult(t, res)
	it := js.New()
	records := installSOAP(it)
	_, runErr := it.Run(monitored)
	if runErr == nil {
		t.Error("script exception should propagate")
	}
	if len(*records) != 2 || (*records)[1].Event != "exit" {
		t.Errorf("exit not delivered on throw: %+v", *records)
	}
}

func TestInstrumentBothCiphersDecryptCorrectly(t *testing.T) {
	// Run many seeds so both cipher paths and decoy layouts execute.
	for seed := int64(1); seed <= 12; seed++ {
		reg := NewRegistry("d")
		ins := New(reg, Options{Seed: seed})
		raw := buildDocBytes(t, "result = 'abc'.toUpperCase();")
		res, err := ins.InstrumentBytes("doc", raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		monitored := extractScriptFromResult(t, res)
		it := js.New()
		installSOAP(it)
		if _, err := it.Run(monitored); err != nil {
			t.Fatalf("seed %d: monitored run: %v", seed, err)
		}
		if v, _ := it.Global.Lookup("result"); v.Str() != "ABC" {
			t.Errorf("seed %d: result = %v", seed, v)
		}
	}
}

func TestInstrumentNonASCIIScript(t *testing.T) {
	ins, _ := newTestInstrumenter(t)
	raw := buildDocBytes(t, "var s = unescape('%u0c0c') + 'é世';\nresult = s.length;")
	res, err := ins.InstrumentBytes("doc-uni", raw)
	if err != nil {
		t.Fatal(err)
	}
	monitored := extractScriptFromResult(t, res)
	it := js.New()
	installSOAP(it)
	if _, err := it.Run(monitored); err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	if v, _ := it.Global.Lookup("result"); v.Num() != 3 {
		t.Errorf("result = %v, want 3", v.Num())
	}
}

// TestResubmissionGetsFreshKey: instrumenting the same bytes twice is two
// scans, each under its own key, and forgetting one leaves the other valid.
func TestResubmissionGetsFreshKey(t *testing.T) {
	ins, reg := newTestInstrumenter(t)
	raw := buildDocBytes(t, "1;")
	a, err := ins.InstrumentBytes("a", raw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ins.InstrumentBytes("b", raw)
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if a.Key == b.Key {
		t.Fatalf("both scans got key %s", a.Key)
	}
	if reg.Len() != 2 {
		t.Fatalf("registry len = %d, want 2", reg.Len())
	}
	ins.Forget(a.Key.InstrKey)
	if _, err := reg.Validate(a.Key.String()); err == nil {
		t.Error("forgotten key still validates")
	}
	if _, err := reg.Validate(b.Key.String()); err != nil {
		t.Errorf("second scan's key: %v", err)
	}
}

func TestRegisterRejectsKeyCollision(t *testing.T) {
	reg := NewRegistry("det")
	rec := DocRecord{DocID: "a", InstrKey: "k1"}
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(rec); !errors.Is(err, ErrDuplicate) {
		t.Errorf("second Register = %v, want ErrDuplicate", err)
	}
}

func TestInstrumentNoJavaScript(t *testing.T) {
	ins, _ := newTestInstrumenter(t)
	d := pdf.NewDocument()
	page := d.Add(pdf.Dict{"Type": pdf.Name("Page")})
	pages := d.Add(pdf.Dict{"Type": pdf.Name("Pages"), "Kids": pdf.Array{page}})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "Pages": pages})
	d.Trailer["Root"] = catalog
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ins.InstrumentBytes("plain", raw)
	if !errors.Is(err, ErrNoJavaScript) {
		t.Fatalf("expected ErrNoJavaScript, got %v", err)
	}
	if res.Features.HasJavaScript {
		t.Error("features claim javascript present")
	}
}

func TestSequentialScriptsGetOneMonitor(t *testing.T) {
	d := pdf.NewDocument()
	third := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": pdf.String{Value: []byte("order.push(3);")}})
	second := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": pdf.String{Value: []byte("order.push(2);")}, "Next": third})
	first := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": pdf.String{Value: []byte("order.push(1);")}, "Next": second})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": first})
	d.Trailer["Root"] = catalog
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ins, _ := newTestInstrumenter(t)
	res, err := ins.InstrumentBytes("seqdoc", raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScriptsInstrumented != 1 {
		t.Fatalf("sequential chain should use one monitor, got %d", res.ScriptsInstrumented)
	}

	// Execute the head script: all three bodies must run in order with a
	// single enter/exit pair.
	doc, err := pdf.Parse(res.Output, pdf.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		t.Fatal(err)
	}
	var head string
	for _, c := range chains.Chains {
		if c.Holder == first.Num {
			head = c.Source
		}
		if c.Holder == second.Num || c.Holder == third.Num {
			if c.Source != "" {
				t.Errorf("folded script %d not blanked: %q", c.Holder, c.Source)
			}
		}
	}
	it := js.New()
	records := installSOAP(it)
	if _, err := it.Run("var order = [];"); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Run(head); err != nil {
		t.Fatalf("head script: %v", err)
	}
	joined, err := it.Run("order.join(',');")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Str() != "1,2,3" {
		t.Errorf("order = %q, want 1,2,3", joined.Str())
	}
	if len(*records) != 2 {
		t.Errorf("SOAP records = %d, want 2 (single monitor)", len(*records))
	}
}

// acceptingNotifier answers every context message as a detector answers a
// valid key, and counts them.
type acceptingNotifier struct{ msgs int }

func (a *acceptingNotifier) Send(soapsrv.Notify) (string, error) {
	a.msgs++
	return "ok", nil
}

// stagedArg is the i-th argument of a staged call in
// TestStagedRewriteCodeArgument: code that sets a global the test reads.
func stagedArg(i int) string { return fmt.Sprintf(`"a%d = %d;"`, i, i+1) }

// TestStagedRewriteCodeArgument calls every staged method with zero to
// three string literals, each of them runnable code, and then the call
// forms whose argument lists or callees the engine reads in its own way;
// the two with a missing comma are syntax errors, left unchanged.
// The rewriter must wrap exactly the argument the reader runs, hide its
// plaintext, and leave every other argument (a timer's delay included)
// as written. Opened in the reader, every staged run then sends its own
// enter and exit context messages next to the outer script's pair.
func TestStagedRewriteCodeArgument(t *testing.T) {
	type stagedCall struct {
		src  string
		code int // index of the stagedArg the reader runs, or -1
		// rejected marks a source every engine rejects with a syntax
		// error: it is left unchanged, and the reader runs none of it.
		rejected bool
	}
	var calls []stagedCall
	for _, callee := range []string{
		"this.addScript", "this.setAction", "this.setPageAction",
		`this.getField("btn").setAction`, "this.bookmarkRoot.setAction",
		"app.setTimeOut", "app.setInterval",
	} {
		method := callee[strings.LastIndexByte(callee, '.')+1:]
		for argc := 0; argc <= 3; argc++ {
			args := make([]string, argc)
			for i := range args {
				args[i] = stagedArg(i)
			}
			code, ok := reader.CodeArg(method, argc)
			if !ok {
				code = -1
			}
			calls = append(calls, stagedCall{src: callee + "(" + strings.Join(args, ", ") + ");", code: code})
		}
	}
	calls = append(calls,
		stagedCall{src: "this.setAction(" + stagedArg(0) + ",);", code: 0},
		stagedCall{src: "this.setAction(" + stagedArg(0) + " " + stagedArg(1) + ");", code: -1, rejected: true},
		stagedCall{src: "app.setTimeOut(" + stagedArg(0) + ", 5000);", code: 0},
		stagedCall{src: "app.setTimeOut(" + stagedArg(0) + " 5000);", code: -1, rejected: true},
		stagedCall{src: "(app.setTimeOut)(" + stagedArg(0) + ", 5000);", code: 0},
		stagedCall{src: "new app.setInterval(" + stagedArg(0) + ", 5000);", code: 0},
		stagedCall{src: `this["addScript"](` + stagedArg(0) + ", " + stagedArg(1) + ");", code: 1},
	)
	for _, c := range calls {
		t.Run(c.src, func(t *testing.T) {
			b := &monitorBuilder{rng: rand.New(rand.NewSource(1)), detectorID: "d"}
			var wrapped []string
			rewritten, _ := rewriteStaged(c.src, 0, func(inner string) string {
				wrapped = append(wrapped, b.build(Key{InstrKey: "k"}, 2, inner))
				return wrapped[len(wrapped)-1]
			})
			staged := 0
			if c.code < 0 {
				if rewritten != c.src {
					t.Fatalf("rewrote %q with no code argument to %q", c.src, rewritten)
				}
			} else {
				staged = 1
				lit := stagedArg(c.code)
				plain := lit[1 : len(lit)-1]
				if len(wrapped) != 1 || strings.Contains(wrapped[0], plain) {
					t.Fatalf("%d wrapped arguments %q, want one hiding %q", len(wrapped), wrapped, plain)
				}
				if want := strings.Replace(c.src, lit, jsStringLiteral(wrapped[0]), 1); rewritten != want {
					t.Fatalf("rewritten to %q, want only %s wrapped", rewritten, lit)
				}
				it := js.New()
				records := installSOAP(it)
				if _, err := it.Run(wrapped[0]); err != nil {
					t.Fatalf("wrapped code: %v", err)
				}
				name := strings.Fields(plain)[0]
				if v, _ := it.Global.Lookup(name); v.Num() != float64(c.code+1) || len(*records) != 2 {
					t.Errorf("wrapped code set %s = %v and sent %d messages, want %d and 2", name, v, len(*records), c.code+1)
				}
			}

			ins, _ := newTestInstrumenter(t)
			res, err := ins.InstrumentBytes("staged", buildDocBytes(t, c.src))
			if err != nil {
				t.Fatal(err)
			}
			if res.StagedRewrites != staged {
				t.Fatalf("StagedRewrites = %d, want %d", res.StagedRewrites, staged)
			}
			detector := &acceptingNotifier{}
			p := reader.NewProcess(reader.Config{Notifier: detector})
			defer p.Close()
			open, err := p.Open("staged", res.Output, reader.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if c.rejected {
				// The monitoring code runs and reports enter and exit; the
				// decrypted source then fails to parse, so none of it runs.
				if len(open.ScriptErrors) != 1 || !strings.Contains(open.ScriptErrors[0], "syntax") {
					t.Fatalf("rejected source: script errors %q, want one syntax error", open.ScriptErrors)
				}
			} else if len(open.ScriptErrors) != 0 {
				t.Fatalf("script errors: %v", open.ScriptErrors)
			}
			if open.JSRuns != 1+staged || detector.msgs != 2*(1+staged) {
				t.Errorf("reader ran %d scripts and sent %d context messages, want %d and %d",
					open.JSRuns, detector.msgs, 1+staged, 2*(1+staged))
			}
		})
	}
}

func TestDeinstrumentRestoresOriginal(t *testing.T) {
	ins, reg := newTestInstrumenter(t)
	original := "var x = 123; x;"
	raw := buildDocBytes(t, original)
	res, err := ins.InstrumentBytes("roundtrip", raw)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("registry size = %d", reg.Len())
	}
	restored, err := ins.Deinstrument(res.Output, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := pdf.Parse(restored, pdf.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains.Chains) != 1 || chains.Chains[0].Source != original {
		t.Errorf("restored script = %+v", chains.Chains)
	}
	if reg.Len() != 0 {
		t.Errorf("registry not cleaned: %d", reg.Len())
	}
}

func TestRegistryValidate(t *testing.T) {
	_, reg := newTestInstrumenter(t)
	rec := DocRecord{DocID: "d", InstrKey: "abc123"}
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Validate("testdetector01:abc123"); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
	for _, bad := range []string{
		"testdetector01:unknown", // unregistered instr key
		"otherdetector:abc123",   // foreign detector
		"nocolon",                // malformed
		":abc123",                // empty detector
		"testdetector01:",        // empty key
	} {
		if _, err := reg.Validate(bad); err == nil {
			t.Errorf("%q: expected validation failure", bad)
		}
	}
}

func TestFeatureExtractionOnObfuscatedDoc(t *testing.T) {
	// Hand-build an obfuscated malicious-style doc: junk header, hex name,
	// empty object, double encoding.
	d := pdf.NewDocument()
	script := "spray();"
	raw, filterObj, err := pdf.EncodeChain([]pdf.Name{pdf.FilterFlate, pdf.FilterASCIIHex}, []byte(script))
	if err != nil {
		t.Fatal(err)
	}
	jsData := d.Add(&pdf.Stream{Dict: pdf.Dict{"Filter": filterObj}, Raw: raw})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsData})
	d.Add(pdf.Dict{}) // empty decoy
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d.Trailer["Root"] = catalog
	data, err := pdf.Write(d, pdf.WriteOptions{HeaderJunk: []byte("MZ\x90garbage\n")})
	if err != nil {
		t.Fatal(err)
	}
	// Obfuscate the /JS key at byte level.
	data = []byte(strings.Replace(string(data), "/JS ", "/J#53 ", 1))

	feats, chains, _, err := Analyze(data)
	if err != nil {
		t.Fatal(err)
	}
	if !feats.HasJavaScript {
		t.Fatal("javascript not found through obfuscation")
	}
	if !feats.HeaderObfuscated {
		t.Error("header obfuscation missed")
	}
	if feats.HexCodeCount == 0 {
		t.Error("hex keyword missed")
	}
	if feats.EmptyObjects != 1 {
		t.Errorf("empty objects = %d", feats.EmptyObjects)
	}
	if feats.EncodingLevels != 2 {
		t.Errorf("encoding levels = %d", feats.EncodingLevels)
	}
	vec := feats.Vector()
	if vec[1] != 1 || vec[2] != 1 || vec[3] != 1 || vec[4] != 1 {
		t.Errorf("vector = %v", vec)
	}
	if chains.Ratio() < RatioThreshold {
		t.Errorf("ratio = %v below threshold for blank malicious doc", chains.Ratio())
	}
}
