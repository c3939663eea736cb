package pdfshield

import (
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
)

// TestSessionCloseForgetsItsDocuments: every open/close cycle of a public
// Session leaves the registry as it found it, and the detector with no
// state for any key the session's documents carried.
func TestSessionCloseForgetsItsDocuments(t *testing.T) {
	sys, err := New(Options{ViewerVersion: 9.0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	g := corpus.NewGenerator(17)
	benign := g.BenignNavJS()
	mal, _ := g.MaliciousFamily("mal-printf")
	emb, _ := g.MaliciousFamily("mal-embedded")
	records := sys.inner.Registry.Len()
	for i := 0; i < 20; i++ {
		sess := sys.NewSession()
		for _, s := range []corpus.Sample{benign, mal, emb} {
			if err := sess.Open(s.ID, s.Raw); err != nil {
				t.Fatal(err)
			}
		}
		var keys []string
		var collect func(*instrument.Result)
		collect = func(res *instrument.Result) {
			keys = append(keys, res.Key.InstrKey)
			for _, e := range res.Embedded {
				collect(e)
			}
		}
		for _, res := range sess.opened {
			collect(res)
		}
		if _, ok := sys.inner.Detector.DocStateFor(keys[0]); !ok {
			t.Fatal("an opened document left no detector state: the test shows nothing")
		}
		sess.Close()
		if n := sys.inner.Registry.Len(); n != records {
			t.Fatalf("cycle %d: %d registry records, want %d", i+1, n, records)
		}
		for _, key := range keys {
			if _, ok := sys.inner.Detector.DocStateFor(key); ok {
				t.Fatalf("cycle %d: detector still holds state for %s", i+1, key)
			}
		}
	}
	if !sys.IsMalicious(mal.ID) {
		t.Error("malicious document's alert lost at Close")
	}
}
