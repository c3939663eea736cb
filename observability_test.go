package pdfshield_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"pdfshield"
	"pdfshield/internal/corpus"
)

// TestPublicAPISessionOpenNoJavaScript pins the Session.Open contract for
// out-of-scope documents: nothing is opened and the error unwraps to
// ErrNoJavaScript (Open previously slipped a nil instrumentation result
// through to the reader).
func TestPublicAPISessionOpenNoJavaScript(t *testing.T) {
	sys := newTestSystem(t, 9.0)
	sess := sys.NewSession()
	defer sess.Close()

	g := corpus.NewGenerator(555)
	plain := g.BenignText(8 << 10)
	err := sess.Open(plain.ID, plain.Raw)
	if err == nil {
		t.Fatal("Open succeeded on a document with nothing to monitor")
	}
	if !errors.Is(err, pdfshield.ErrNoJavaScript) {
		t.Fatalf("error %v does not unwrap to ErrNoJavaScript", err)
	}

	// The session stays usable for real documents afterwards.
	js := g.BenignWithJS(1)[0]
	if err := sess.Open(js.ID, js.Raw); err != nil {
		t.Fatalf("open after no-JS rejection: %v", err)
	}
}

// TestPublicAPIContextAndStats drives the context-aware batch entry point
// with a private metrics registry and checks the consolidated Stats and
// per-verdict traces agree with the batch result through JSON.
func TestPublicAPIContextAndStats(t *testing.T) {
	sys, err := pdfshield.New(pdfshield.Options{
		ViewerVersion: 9.0,
		Seed:          77,
		Cache:         &pdfshield.CacheConfig{},
		Metrics:       pdfshield.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	g := corpus.NewGenerator(808)
	docs := []pdfshield.BatchDoc{}
	mal, _ := g.MaliciousFamily("mal-printf")
	docs = append(docs, pdfshield.BatchDoc{ID: mal.ID, Raw: mal.Raw})
	for _, s := range g.BenignWithJS(2) {
		docs = append(docs, pdfshield.BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	plain := g.BenignText(10 << 10)
	docs = append(docs, pdfshield.BatchDoc{ID: plain.ID, Raw: plain.Raw})

	res := sys.ProcessBatchContext(context.Background(), docs, pdfshield.BatchOptions{Workers: 2})
	var malicious, nojs uint64
	isolated := 0
	for i, v := range res.Verdicts {
		if v == nil {
			t.Fatalf("slot %d: %v", i, res.Errors[i])
		}
		if v.Trace == nil || len(v.Trace.Spans) == 0 {
			t.Fatalf("verdict %s carries no trace", v.DocID)
		}
		if v.Malicious {
			malicious++
		}
		if v.NoJavaScript {
			nojs++
		}
		isolated += len(v.IsolatedFiles)
	}
	if malicious == 0 || nojs == 0 {
		t.Fatalf("corpus should produce both outcomes (mal=%d nojs=%d)", malicious, nojs)
	}

	st := sys.Stats()
	if st.Docs.Total != uint64(len(docs)) || st.Docs.Malicious != malicious || st.Docs.NoJavaScript != nojs {
		t.Fatalf("stats %+v inconsistent with batch (total=%d mal=%d nojs=%d)",
			st.Docs, len(docs), malicious, nojs)
	}
	if st.Cache == nil || st.Cache.Misses == 0 {
		t.Fatalf("cache stats missing from Stats: %+v", st.Cache)
	}
	// An alert records every artifact it quarantines, so with no rejected
	// DLL injection in the batch (the one quarantine outside an alert) the
	// System-wide count must equal the verdicts' isolated files.
	if st.Quarantined != isolated {
		t.Errorf("Stats.Quarantined = %d, verdicts isolated %d files", st.Quarantined, isolated)
	}

	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back pdfshield.Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Docs != st.Docs || back.Quarantined != st.Quarantined {
		t.Fatalf("Stats JSON round-trip mismatch:\n got %+v\nwant %+v", back, st)
	}

	// A cancelled context is reported per slot, errors.Is-able.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	extra := g.BenignWithJS(1)[0]
	res = sys.ProcessBatchContext(ctx, []pdfshield.BatchDoc{{ID: extra.ID, Raw: extra.Raw}}, pdfshield.BatchOptions{Workers: 1})
	if res.Verdicts[0] != nil || !errors.Is(res.Errors[0], context.Canceled) {
		t.Fatalf("cancelled batch slot = (%v, %v)", res.Verdicts[0], res.Errors[0])
	}
}
