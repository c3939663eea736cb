package pipeline

import (
	"fmt"
	"sync"
	"testing"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
)

// TestWorkersShareCachedView: several Workers submit one document at once,
// round after round, through a cached System. Every submission after the
// first is a cache hit that opens the artifact's one prepared view, and
// every verdict matches an uncached System's. Under -race this checks the
// view's sharing across Worker goroutines.
func TestWorkersShareCachedView(t *testing.T) {
	g := corpus.NewGenerator(41)
	samples := []corpus.Sample{g.BenignFormJS(), g.BenignAttachments(2, true)}
	for _, fam := range []string{"mal-flash", "mal-egghunt", "mal-embedded"} {
		s, ok := g.MaliciousFamily(fam)
		if !ok {
			t.Fatalf("no family %s", fam)
		}
		samples = append(samples, s)
	}
	sys, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 41, Cache: &cache.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	const workers, rounds = 4, 3
	for _, s := range samples {
		ref, err := newSystem(t, 8.0).ProcessDocumentContext(t.Context(), s.ID, s.Raw)
		if err != nil {
			t.Fatalf("uncached %s: %v", s.ID, err)
		}
		verdicts := make([][]*Verdict, workers)
		var wg sync.WaitGroup
		for w := range verdicts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk := sys.NewWorker()
				defer wk.Close()
				for r := 0; r < rounds; r++ {
					v, err := wk.Process(t.Context(), BatchDoc{ID: fmt.Sprintf("%s-w%d-r%d", s.ID, w, r), Raw: s.Raw})
					if err != nil {
						t.Errorf("%s worker %d round %d: %v", s.ID, w, r, err)
						return
					}
					verdicts[w] = append(verdicts[w], v)
				}
			}()
		}
		wg.Wait()
		first := verdicts[0][0].Instrument
		view, err := first.Prepared()
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		for w, vs := range verdicts {
			for r, v := range vs {
				if v.Instrument != first {
					t.Errorf("%s worker %d round %d: opened another artifact", s.ID, w, r)
				} else if got, _ := v.Instrument.Prepared(); got != view {
					t.Errorf("%s worker %d round %d: opened another view", s.ID, w, r)
				}
				if v.Malicious != ref.Malicious || v.Crashed != ref.Crashed {
					t.Errorf("%s worker %d round %d: malicious=%v crashed=%v, uncached malicious=%v crashed=%v",
						s.ID, w, r, v.Malicious, v.Crashed, ref.Malicious, ref.Crashed)
				}
			}
		}
	}
}
