package pipeline

import (
	"fmt"
	"testing"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
	"pdfshield/internal/detect"
	"pdfshield/internal/obs"
	"pdfshield/internal/pdf"
)

// A registry record lives as long as its instrumented artifact, so the
// same bytes can be scanned again and again: without a cache each
// submission instruments afresh, and with one an evicted entry is simply
// re-instrumented. The soak test checks that a long-lived System's
// registry, detector and fake-OS state stay bounded while it does so.

// TestResubmissionWithoutCacheGetsVerdict: the library default has no
// cache; the same bytes submitted under two IDs get two verdicts.
func TestResubmissionWithoutCacheGetsVerdict(t *testing.T) {
	sys := newSystem(t, 9.0)
	s := corpus.NewGenerator(21).BenignFormJS()
	for _, id := range []string{"a", "b"} {
		v, err := sys.ProcessDocumentContext(t.Context(), id, s.Raw)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if v.Malicious {
			t.Errorf("%s: benign form convicted", id)
		}
	}
	if n := sys.Registry.Len(); n != 0 {
		t.Errorf("registry holds %d records after both submissions finished, want 0", n)
	}
}

// TestResubmissionAfterEvictionGetsVerdict: with a one-entry cache,
// A, B, A, A evicts A twice; every submission gets a verdict, and only
// the resident entry's record stays registered.
func TestResubmissionAfterEvictionGetsVerdict(t *testing.T) {
	sys, err := NewSystem(Options{ViewerVersion: 9.0, Seed: 99, Cache: &cache.Config{MaxEntries: 1, Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	g := corpus.NewGenerator(22)
	a, b := g.BenignFormJS(), g.BenignNavJS()
	for i, s := range []corpus.Sample{a, b, a, a} {
		if _, err := sys.ProcessDocumentContext(t.Context(), fmt.Sprintf("sub-%d", i), s.Raw); err != nil {
			t.Fatalf("submission %d (%s): %v", i, s.ID, err)
		}
	}
	if n := sys.Registry.Len(); n != 1 {
		t.Errorf("registry holds %d records, want 1 (the resident entry's)", n)
	}
}

// TestUncachedResultInstrumentsOnce: a result larger than the cache's
// byte budget is never stored. Each submission of it instruments once,
// gets a verdict and, when done, leaves no registry record behind; the
// cache declining the result must not forget its records under the
// submission that is about to open it.
func TestUncachedResultInstrumentsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	sys, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 99, Obs: reg, Cache: &cache.Config{MaxBytes: 1, Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	g := corpus.NewGenerator(24)
	mal, ok := g.MaliciousFamily("mal-printf")
	if !ok {
		t.Fatal("family missing")
	}
	docs := []corpus.Sample{g.BenignFormJS(), mal}
	const submissions = 3
	for i := 0; i < submissions; i++ {
		for _, s := range docs {
			v, err := sys.ProcessDocumentContext(t.Context(), fmt.Sprintf("%s-%d", s.ID, i), s.Raw)
			if err != nil {
				t.Fatalf("%s submission %d: %v", s.ID, i, err)
			}
			if want := s.Label == corpus.LabelMalicious; v.Malicious != want {
				t.Errorf("%s submission %d: malicious = %v, want %v", s.ID, i, v.Malicious, want)
			}
		}
	}
	if n, want := reg.Counter(obs.MetricDocsInstrumented).Value(), uint64(submissions*len(docs)); n != want {
		t.Errorf("front-end passes = %d, want %d (one per submission)", n, want)
	}
	if n := sys.Registry.Len(); n != 0 {
		t.Errorf("registry holds %d records, want 0", n)
	}
	if st, _ := sys.CacheStats(); st.Entries != 0 {
		t.Errorf("cache holds %d entries, want 0 (every result is over budget)", st.Entries)
	}
}

// soakState is the long-lived state a System could accumulate per
// document.
type soakState struct {
	registry, lastMem, procs, sandboxed, alerts int
}

func measureSoak(sys *System) soakState {
	return soakState{
		registry:  sys.Registry.Len(),
		lastMem:   sys.Detector.ProcessStates(),
		procs:     sys.OS.ProcessCount(),
		sandboxed: sys.Detector.Sandbox().Running(),
		alerts:    len(sys.Detector.Alerts()),
	}
}

// spawnerDoc is a document whose sprayed shellcode starts exe and does
// nothing else. A whitelisted helper runs in the reader and outlives the
// alert; any other program runs in the sandbox until the alert
// terminates it.
func spawnerDoc(t *testing.T, id, exe string) corpus.Sample {
	t.Helper()
	script := `
var payload = "PAYLOAD:EXEC=` + exe + `|";
var nop = unescape("%0c%0c%0c%0c");
while (nop.length < 524288) nop += nop;
var blocks = [];
for (var i = 0; i < 230; i++) blocks[i] = nop + payload;
util.printf("%45000f", 1.2);`
	d := pdf.NewDocument()
	js := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": js})
	page := d.Add(pdf.Dict{"Type": pdf.Name("Page")})
	pages := d.Add(pdf.Dict{"Type": pdf.Name("Pages"), "Kids": pdf.Array{page}, "Count": pdf.Integer(1)})
	d.Trailer["Root"] = d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "Pages": pages, "OpenAction": action})
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Sample{ID: id, Raw: raw}
}

// TestSoakStateBounded runs rounds of a mixed population (benign,
// encrypted, SOAP, scriptless, malicious, a malicious attachment, and two
// documents that start a program, one sandboxed, one allowed),
// every document resubmitted in every round, through one System, once
// without a cache and once with a one-entry cache. Every submission must
// get a verdict, and after every round the state stays under a bound that
// does not depend on the number of documents: no registry record outlives
// its artifact (only the resident cache entry's, host and attachment,
// remain), and no reader PID, or process a reader started, outlives its
// session in the process table, the sandbox or the detector. The rounds raise more alerts than the detector's
// history keeps, so the alert ring wraps.
func TestSoakStateBounded(t *testing.T) {
	g := corpus.NewGenerator(23)
	mal, ok := g.MaliciousFamily("mal-printf")
	if !ok {
		t.Fatal("family missing")
	}
	emb, ok := g.MaliciousFamily("mal-embedded")
	if !ok {
		t.Fatal("family missing")
	}
	unique := []corpus.Sample{g.BenignFormJS(), g.BenignEncrypted(), g.BenignSOAPJS(), g.BenignText(4 << 10), mal, emb,
		spawnerDoc(t, "spawn-sandboxed", `C:\\tmp\\calc.exe`), spawnerDoc(t, "spawn-allowed", `C:\\Program Files\\Adobe\\ARM\\AdobeARM.exe`)}
	const rounds = 80
	for _, tc := range []struct {
		name       string
		cache      *cache.Config
		maxRecords int
	}{
		{"no-cache", nil, 0},
		{"one-entry-cache", &cache.Config{MaxEntries: 1, Shards: 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 99, Cache: tc.cache})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sys.Close() })
			var got soakState
			for r := 0; r < rounds; r++ {
				docs := make([]BatchDoc, 0, 2*len(unique))
				for i := 0; i < 2; i++ {
					for _, s := range unique {
						docs = append(docs, BatchDoc{ID: fmt.Sprintf("r%d-%d-%s", r, i, s.ID), Raw: s.Raw})
					}
				}
				res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 2})
				for i, err := range res.Errors {
					if err != nil {
						t.Fatalf("round %d: %s: %v", r+1, docs[i].ID, err)
					}
				}
				got = measureSoak(sys)
				if got.registry > tc.maxRecords || got.lastMem != 0 || got.procs != 0 || got.sandboxed != 0 {
					t.Fatalf("round %d: state %+v, want at most %d records and no process left", r+1, got, tc.maxRecords)
				}
			}
			if got.alerts != detect.AlertHistory {
				t.Errorf("alert history holds %d alerts after %d rounds, want its bound %d", got.alerts, rounds, detect.AlertHistory)
			}
		})
	}
}
