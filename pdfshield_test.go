package pdfshield_test

import (
	"errors"
	"testing"

	"pdfshield"
	"pdfshield/internal/corpus"
)

func newTestSystem(t *testing.T, version float64) *pdfshield.System {
	t.Helper()
	sys, err := pdfshield.New(pdfshield.Options{ViewerVersion: version, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

func TestPublicAPIMaliciousVerdict(t *testing.T) {
	sys := newTestSystem(t, 8.0)
	g := corpus.NewGenerator(301)
	s, _ := g.MaliciousFamily("mal-newplayer")

	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Fatal("not detected through public API")
	}
	if v.Malscore < 10 {
		t.Errorf("malscore = %d", v.Malscore)
	}
	if len(v.Features) == 0 {
		t.Error("no features reported")
	}
	if v.Reason != "malscore" {
		t.Errorf("reason = %q", v.Reason)
	}
	if !sys.IsMalicious(s.ID) {
		t.Error("IsMalicious disagrees")
	}
	if len(sys.Alerts()) == 0 {
		t.Error("no alerts exposed")
	}
}

func TestPublicAPIBenignVerdict(t *testing.T) {
	sys := newTestSystem(t, 9.0)
	g := corpus.NewGenerator(302)
	s := g.BenignFormJS()
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.Malicious {
		t.Fatalf("false positive: %+v", v)
	}
	if !v.Static.HasJavaScript {
		t.Error("static features lost")
	}
}

func TestPublicAPINoJavaScript(t *testing.T) {
	sys := newTestSystem(t, 9.0)
	g := corpus.NewGenerator(303)
	s := g.BenignText(32 << 10)
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.NoJavaScript {
		t.Error("expected out-of-scope verdict")
	}
}

func TestPublicAPIAnalyze(t *testing.T) {
	g := corpus.NewGenerator(304)
	s := g.BenignFormJS()
	feats, err := pdfshield.Analyze(s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !feats.HasJavaScript {
		t.Error("analyze missed javascript")
	}
	if err := pdfshield.ValidatePDF(s.Raw); err != nil {
		t.Errorf("validate: %v", err)
	}
	if err := pdfshield.ValidatePDF([]byte("garbage")); err == nil {
		t.Error("garbage validated")
	}
}

func TestPublicAPIInstrumentOnly(t *testing.T) {
	sys := newTestSystem(t, 9.0)
	g := corpus.NewGenerator(305)
	s := g.BenignFormJS()
	res, err := sys.Instrument(s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScriptsInstrumented == 0 {
		t.Error("nothing instrumented")
	}
	if res.Key == "" {
		t.Error("no key")
	}
	if len(res.Output) == 0 {
		t.Error("no output")
	}
	// Scriptless documents surface the sentinel.
	plain := g.BenignText(4 << 10)
	if _, err := sys.Instrument(plain.ID, plain.Raw); !errors.Is(err, pdfshield.ErrNoJavaScript) {
		t.Errorf("want ErrNoJavaScript, got %v", err)
	}
}

func TestPublicAPISessionMultiDoc(t *testing.T) {
	sys := newTestSystem(t, 8.0)
	g := corpus.NewGenerator(306)
	benign := g.BenignNavJS()
	mal, _ := g.MaliciousFamily("mal-printf")

	sess := sys.NewSession()
	if err := sess.Open(benign.ID, benign.Raw); err != nil {
		t.Fatal(err)
	}
	if err := sess.Open(mal.ID, mal.Raw); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	if sys.IsMalicious(benign.ID) {
		t.Error("benign doc flagged in shared session")
	}
	if !sys.IsMalicious(mal.ID) {
		t.Error("malicious doc missed in shared session")
	}
}
