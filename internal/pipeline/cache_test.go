package pipeline

import (
	"fmt"
	"testing"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
)

// duplicateCorpus builds the duplicate-heavy population the front-end
// cache targets: `unique` distinct documents (scriptless, benign-with-JS,
// and malicious) resubmitted over `rounds` rounds under fresh IDs.
func duplicateCorpus(t *testing.T, unique, rounds int) ([][]BatchDoc, []BatchDoc) {
	t.Helper()
	g := corpus.NewGenerator(31337)
	samples := make([]corpus.Sample, 0, unique)
	for i := 0; len(samples) < unique; i++ {
		switch i % 5 {
		case 0:
			samples = append(samples, g.Malicious())
		case 1:
			samples = append(samples, g.BenignWithJS(1)[0])
		case 2:
			samples = append(samples, g.BenignAttachments(2, true))
		default:
			samples = append(samples, g.BenignText(16<<10))
		}
	}
	byRound := make([][]BatchDoc, rounds)
	var flat []BatchDoc
	for r := 0; r < rounds; r++ {
		docs := make([]BatchDoc, len(samples))
		for i, s := range samples {
			docs[i] = BatchDoc{ID: fmt.Sprintf("dup-r%02d-%s", r, s.ID), Raw: s.Raw}
		}
		byRound[r] = docs
		flat = append(flat, docs...)
	}
	return byRound, flat
}

// TestBatchWithCacheMatchesSerialUncached is the acceptance property for
// the front-end cache: a duplicate-heavy batch (50 documents, 10 unique)
// processed through one cached system produces the same verdict for every
// document as serial uncached processing (fresh system per round, since
// the registry refuses to re-instrument bytes it has already seen). Under
// -race this also exercises hit replay, the per-key open serialization,
// and the shared detector concurrently.
func TestBatchWithCacheMatchesSerialUncached(t *testing.T) {
	const unique, rounds = 10, 5
	byRound, flat := duplicateCorpus(t, unique, rounds)

	type outcome struct {
		malicious, noJS, crashed bool
		alertReason              string
	}
	want := make(map[string]outcome, len(flat))
	for _, docs := range byRound {
		sys := newSystem(t, 8.0)
		for _, d := range docs {
			v, err := sys.ProcessDocumentContext(t.Context(), d.ID, d.Raw)
			if err != nil {
				t.Fatalf("serial %s: %v", d.ID, err)
			}
			o := outcome{malicious: v.Malicious, noJS: v.NoJavaScript, crashed: v.Crashed}
			if v.Alert != nil {
				o.alertReason = v.Alert.Reason
			}
			want[d.ID] = o
		}
	}

	cached, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 99, Cache: &cache.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cached.Close() })
	res := cached.ProcessBatchContext(t.Context(), flat, BatchOptions{Workers: 4})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d documents failed in the cached batch: %v", n, res.Errors)
	}

	for i, v := range res.Verdicts {
		d := flat[i]
		if v == nil {
			t.Fatalf("verdict %d (%s) missing", i, d.ID)
		}
		if v.DocID != d.ID {
			t.Errorf("slot %d: verdict DocID %q, want the submission's ID %q", i, v.DocID, d.ID)
		}
		w := want[d.ID]
		if v.Malicious != w.malicious || v.NoJavaScript != w.noJS || v.Crashed != w.crashed {
			t.Errorf("%s: cached (mal=%v nojs=%v crash=%v) != serial uncached (mal=%v nojs=%v crash=%v)",
				d.ID, v.Malicious, v.NoJavaScript, v.Crashed, w.malicious, w.noJS, w.crashed)
		}
		reason := ""
		if v.Alert != nil {
			reason = v.Alert.Reason
		}
		if reason != w.alertReason {
			t.Errorf("%s: alert reason %q != serial %q", d.ID, reason, w.alertReason)
		}
	}

	stats, ok := cached.CacheStats()
	if !ok {
		t.Fatal("cached system reports no cache stats")
	}
	if stats.Misses != unique {
		t.Errorf("misses = %d, want %d (one front-end pass per unique document)", stats.Misses, unique)
	}
	if got := stats.Hits + stats.Shared; got != uint64(len(flat)-unique) {
		t.Errorf("hits+shared = %d, want %d", got, len(flat)-unique)
	}
}

// TestCacheStatsAfterBatch checks that System.CacheStats reports a
// batch's cache traffic without the full corpus machinery.
func TestCacheStatsAfterBatch(t *testing.T) {
	g := corpus.NewGenerator(7)
	s := g.BenignText(8 << 10)
	sys, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 99, Cache: &cache.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	docs := []BatchDoc{
		{ID: "a", Raw: s.Raw},
		{ID: "b", Raw: s.Raw},
		{ID: "c", Raw: s.Raw},
	}
	if res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 1}); res.Failed() != 0 {
		t.Fatalf("batch failed: %v", res.Errors)
	}
	stats, ok := sys.CacheStats()
	if !ok {
		t.Fatal("CacheStats not ok on a cached system")
	}
	if stats.Misses != 1 || stats.Hits+stats.Shared != 2 {
		t.Fatalf("stats = %+v, want 1 miss / 2 avoided", stats)
	}

	plain := newSystem(t, 8.0)
	plain.ProcessBatchContext(t.Context(), docs[:1], BatchOptions{Workers: 1})
	if _, ok := plain.CacheStats(); ok {
		t.Fatal("uncached system must report no cache stats")
	}
}
