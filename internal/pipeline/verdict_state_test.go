package pipeline

import (
	"testing"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
)

// TestVerdictIgnoresEarlierAlertUnderSameID: a document ID is chosen by
// the submitter (pdfshield-serve takes it from X-Doc-Id), so a benign
// document submitted under the ID a malicious one used before must be
// judged on its own open, not convicted by the earlier alert.
func TestVerdictIgnoresEarlierAlertUnderSameID(t *testing.T) {
	sys := newSystem(t, 8.0)
	g := corpus.NewGenerator(404)
	mal, ok := g.MaliciousFamily("mal-printf")
	if !ok {
		t.Fatal("family missing")
	}
	v, err := sys.ProcessDocumentContext(t.Context(), "upload.pdf", mal.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious || v.Alert == nil {
		t.Fatalf("malicious upload not convicted: %+v", v)
	}

	v, err = sys.ProcessDocumentContext(t.Context(), "upload.pdf", g.BenignFormJS().Raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.Malicious || v.Alert != nil {
		t.Errorf("benign upload under a reused ID: Malicious=%v Alert=%+v, want benign", v.Malicious, v.Alert)
	}
}

// TestCachedAttachmentAlertsOnEveryOpen: with the front-end cache on,
// every submission of a document whose attachment carries the exploit
// reopens the same attachment key. Each open must start from fresh
// detector state and raise its own alert; a state left latched by the
// first open would convict later opens by the first alert alone.
func TestCachedAttachmentAlertsOnEveryOpen(t *testing.T) {
	sys, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 99, Cache: &cache.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	s, ok := corpus.NewGenerator(405).MaliciousFamily("mal-embedded")
	if !ok {
		t.Fatal("family missing")
	}
	const submissions = 3
	for i := 0; i < submissions; i++ {
		v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if !v.Malicious || v.Alert == nil {
			t.Fatalf("submission %d not convicted: %+v", i, v)
		}
	}
	if n := len(sys.Detector.Alerts()); n != submissions {
		t.Errorf("%d alerts over %d submissions, want one per open", n, submissions)
	}
}
