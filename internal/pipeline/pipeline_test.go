package pipeline

import (
	"strings"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/detect"
	"pdfshield/internal/reader"
)

func newSystem(t *testing.T, version float64) *System {
	t.Helper()
	sys, err := NewSystem(Options{ViewerVersion: version, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

func TestEndToEndMaliciousDetected(t *testing.T) {
	sys := newSystem(t, 8.0)
	g := corpus.NewGenerator(101)
	s, ok := g.MaliciousFamily("mal-printf")
	if !ok {
		t.Fatal("family missing")
	}
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Fatalf("malicious sample not detected: open=%+v", v.Open)
	}
	if v.Alert == nil {
		t.Fatal("no alert attached")
	}
	if v.Alert.Malscore < detect.DefaultThreshold {
		t.Errorf("malscore = %d", v.Alert.Malscore)
	}
	if !v.Alert.Features.HasInJS() {
		t.Errorf("no in-JS feature in %v", v.Alert.Features)
	}
	// Confinement: dropped files are quarantined, sandboxed processes are
	// terminated (the payload mix also contains network-only payloads with
	// nothing to isolate).
	if v.Alert.Features[detect.FDropping] == 1 && sys.OS.QuarantineCount() == 0 {
		t.Error("dropped file not quarantined")
	}
	for _, p := range sys.OS.AliveProcesses() {
		if p.Sandboxed {
			t.Errorf("sandboxed process %v still alive after alert", p)
		}
	}
}

func TestEndToEndBenignClean(t *testing.T) {
	sys := newSystem(t, 9.0)
	g := corpus.NewGenerator(102)
	for _, s := range g.BenignWithJS(8) {
		v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if v.Malicious {
			t.Errorf("false positive on %s (%s): %+v", s.ID, s.Family, v.Alert)
		}
		if v.Crashed {
			t.Errorf("benign doc crashed reader: %s", s.ID)
		}
		if v.Open != nil && len(v.Open.ScriptErrors) > 0 {
			t.Errorf("%s (%s): script errors %v", s.ID, s.Family, v.Open.ScriptErrors)
		}
	}
}

func TestEndToEndScriptlessOutOfScope(t *testing.T) {
	sys := newSystem(t, 9.0)
	g := corpus.NewGenerator(103)
	s := g.BenignText(64 << 10)
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.NoJavaScript || v.Malicious {
		t.Errorf("verdict = %+v", v)
	}
}

func TestEndToEndAllFamilies(t *testing.T) {
	// Every malicious family on Acrobat 8.0: working exploits alert;
	// noop families don't (they do nothing); crashers may or may not
	// alert depending on obfuscation.
	g := corpus.NewGenerator(104)
	for _, fam := range corpus.MaliciousFamilies() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			sys := newSystem(t, 8.0)
			s, _ := g.MaliciousFamily(fam)
			v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
			if err != nil {
				t.Fatal(err)
			}
			switch s.Outcome {
			case corpus.OutcomeExploit:
				if !v.Malicious {
					t.Errorf("working exploit undetected; open=%+v errs=%v", v.Open.Exploits, v.Open.ScriptErrors)
				}
				if v.Crashed {
					t.Errorf("unexpected crash: %v", v.Open.ScriptErrors)
				}
			case corpus.OutcomeNoop:
				if v.Malicious {
					t.Errorf("noop sample alerted: %+v", v.Alert)
				}
				if v.Crashed {
					t.Error("noop sample crashed")
				}
			case corpus.OutcomeCrash:
				if !v.Crashed {
					t.Errorf("crasher did not crash: %+v", v.Open.Exploits)
				}
			}
		})
	}
}

func TestEndToEndDetectionOnVersion9(t *testing.T) {
	// mal-newplayer (CVE-2009-4324) works on 9.0 too.
	sys := newSystem(t, 9.0)
	g := corpus.NewGenerator(105)
	s, _ := g.MaliciousFamily("mal-newplayer")
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Errorf("not detected on 9.0: %+v", v.Open)
	}
}

func TestEndToEndDeinstrumentBenign(t *testing.T) {
	sys, err := NewSystem(Options{ViewerVersion: 9.0, Seed: 7, DeinstrumentBenign: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	g := corpus.NewGenerator(106)
	s := g.BenignFormJS()
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.Malicious {
		t.Fatal("false positive")
	}
	if v.Deinstrumented == nil {
		t.Fatal("no deinstrumented bytes")
	}
	// The registry entry must be gone so the document can be re-processed
	// after later edits.
	if sys.Registry.Len() != 0 {
		t.Errorf("registry len = %d after deinstrument", sys.Registry.Len())
	}
}

func TestMultiDocSessionContextAttribution(t *testing.T) {
	// The paper's core claim: with several documents open in ONE reader
	// process, context-aware monitoring attributes the infection to the
	// right document.
	sys := newSystem(t, 8.0)
	g := corpus.NewGenerator(107)

	benign1 := g.BenignFormJS()
	mal, _ := g.MaliciousFamily("mal-geticon")
	benign2 := g.BenignNavJS()

	rb1, err := sys.Instrumenter.InstrumentBytes(benign1.ID, benign1.Raw)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := sys.Instrumenter.InstrumentBytes(mal.ID, mal.Raw)
	if err != nil {
		t.Fatal(err)
	}
	rb2, err := sys.Instrumenter.InstrumentBytes(benign2.ID, benign2.Raw)
	if err != nil {
		t.Fatal(err)
	}

	sess := sys.NewSession()
	defer sess.Close()
	if _, err := sess.Open(rb1, reader.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Open(rm, reader.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Open(rb2, reader.OpenOptions{}); err != nil {
		t.Fatal(err)
	}

	if !sys.Detector.IsMalicious(mal.ID) {
		t.Error("malicious doc not flagged")
	}
	if sys.Detector.IsMalicious(benign1.ID) || sys.Detector.IsMalicious(benign2.ID) {
		t.Error("benign co-open doc wrongly flagged")
	}
	alerts := sys.Detector.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1", len(alerts))
	}
	if alerts[0].DocID != mal.ID {
		t.Errorf("alert names %q, want %q", alerts[0].DocID, mal.ID)
	}
}

func TestBenignSOAPNotFalsePositive(t *testing.T) {
	// The paper's near-miss: one benign sample makes a SOAP network access
	// in JS context (one in-JS feature = 9 < 10) and stays benign.
	sys := newSystem(t, 9.0)
	g := corpus.NewGenerator(108)
	s := g.BenignSOAPJS()
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.Malicious {
		t.Fatalf("SOAP benign flagged: %+v", v.Alert)
	}
	// But the detector did see the in-JS network op.
	if v.Open == nil || len(v.Open.ScriptErrors) > 0 {
		t.Errorf("open = %+v", v.Open)
	}
}

func TestCrasherCleanIsFalseNegative(t *testing.T) {
	// The unobfuscated crasher reproduces the paper's 25 FNs: process
	// crashes, only F8 fires, score 9 < 10.
	sys := newSystem(t, 8.0)
	g := corpus.NewGenerator(109)
	s, _ := g.MaliciousFamily("mal-crasher-clean")
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Crashed {
		t.Fatal("expected crash")
	}
	if v.Malicious {
		t.Error("clean crasher detected (should be the FN case)")
	}
}

func TestInstrumentedOverheadScriptStillWorks(t *testing.T) {
	// Overhead sanity: instrumented benign doc behaves identically.
	sys := newSystem(t, 9.0)
	g := corpus.NewGenerator(110)
	s := g.BenignMultiScript()
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.Open.JSRuns == 0 {
		t.Error("no scripts ran")
	}
	if len(v.Open.ScriptErrors) > 0 {
		t.Errorf("instrumented scripts failed: %v", v.Open.ScriptErrors)
	}
}

func TestEmbeddedMaliciousAttachmentDetected(t *testing.T) {
	// §VI extension: a scriptless host with a malicious PDF attachment.
	// The front-end instruments the attachment; opening it in the same
	// session convicts the host document the user received.
	sys := newSystem(t, 8.0)
	g := corpus.NewGenerator(111)
	s, ok := g.MaliciousFamily("mal-embedded")
	if !ok {
		t.Fatal("family missing")
	}
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.NoJavaScript {
		t.Fatal("embedded JS should keep the host in scope")
	}
	if !v.Malicious {
		t.Fatalf("embedded attack missed: %+v", v.Open)
	}
	if v.Alert == nil || !strings.Contains(v.Alert.DocID, "::embedded-") {
		t.Errorf("alert should name the attachment: %+v", v.Alert)
	}
}

// TestAstralGatedSprayConvicts: instrumentation must not change what a
// script computes. The exploit runs only when a character outside the
// BMP reads back as its high surrogate, as it does in the plain script;
// the monitored copy must decrypt the character whole, or the gate stays
// shut and the document passes as benign. Its ASCII-gated twin is the
// control.
func TestAstralGatedSprayConvicts(t *testing.T) {
	const spray = `var p = "PAYLOAD:DROP=C:\\tmp\\as.exe;EXEC=C:\\tmp\\as.exe|";
var n = unescape("%0c%0c%0c%0c");
while (n.length < 524288) n += n;
var b = [];
for (var i = 0; i < 230; i++) b[i] = n + p;
util.printf("%45000f", 0.01);`
	for name, gate := range map[string]string{
		"astral": `var s = '😀'; if (s.charCodeAt(0) == 0xD83D) {`,
		"ascii":  `var s = 'A'; if (s.charCodeAt(0) == 0x41) {`,
	} {
		raw := scriptDoc(t, gate+"\n"+spray+"\n}")
		for _, d := range []Depth{DepthStandard, DepthAuto, DepthDeep} {
			v, err := depthSystem(t, d, nil).ProcessDocumentContext(t.Context(), name+"-"+string(d), raw)
			if err != nil {
				t.Fatalf("%s %s: %v", name, d, err)
			}
			if !v.Malicious {
				t.Errorf("%s-gated spray judged benign at %s (route %q)", name, d, v.TriageRoute)
			}
		}
	}
}
