package pipeline

import (
	"fmt"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/reader"
)

// mixedCorpus builds a deterministic 50-document mix of benign (with and
// without Javascript) and malicious samples.
func mixedCorpus(t *testing.T, n int) []BatchDoc {
	t.Helper()
	g := corpus.NewGenerator(4242)
	docs := make([]BatchDoc, 0, n)
	for len(docs) < n {
		var s corpus.Sample
		switch len(docs) % 3 {
		case 0:
			s = g.Malicious()
		case 1:
			s = g.BenignWithJS(1)[0]
		default:
			s = g.BenignText(20 << 10)
		}
		docs = append(docs, BatchDoc{ID: fmt.Sprintf("doc-%03d-%s", len(docs), s.ID), Raw: s.Raw})
	}
	return docs
}

// TestProcessBatchMatchesSerial runs 50 mixed documents across 8 workers
// and asserts every verdict matches the serial baseline for the same seed.
// Under -race this also exercises the shared detector, registry, fake OS
// and hook/SOAP servers concurrently.
func TestProcessBatchMatchesSerial(t *testing.T) {
	docs := mixedCorpus(t, 50)

	serial := newSystem(t, 8.0)
	want := make([]*Verdict, len(docs))
	for i, d := range docs {
		v, err := serial.ProcessDocumentContext(t.Context(), d.ID, d.Raw)
		if err != nil {
			t.Fatalf("serial %s: %v", d.ID, err)
		}
		want[i] = v
	}

	parallel := newSystem(t, 8.0)
	res := parallel.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 8})
	if len(res.Verdicts) != len(docs) || len(res.Errors) != len(docs) {
		t.Fatalf("result length %d/%d, want %d", len(res.Verdicts), len(res.Errors), len(docs))
	}
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d documents failed: first errors %v", n, res.Errors)
	}

	for i, got := range res.Verdicts {
		w := want[i]
		if got == nil {
			t.Fatalf("verdict %d (%s) missing", i, docs[i].ID)
		}
		if got.DocID != docs[i].ID {
			t.Errorf("verdict %d out of order: got %s want %s", i, got.DocID, docs[i].ID)
		}
		if got.Malicious != w.Malicious || got.NoJavaScript != w.NoJavaScript || got.Crashed != w.Crashed {
			t.Errorf("%s: batch verdict (mal=%v nojs=%v crash=%v) != serial (mal=%v nojs=%v crash=%v)",
				docs[i].ID, got.Malicious, got.NoJavaScript, got.Crashed, w.Malicious, w.NoJavaScript, w.Crashed)
		}
		if (got.Alert == nil) != (w.Alert == nil) {
			t.Errorf("%s: alert presence differs: batch=%v serial=%v", docs[i].ID, got.Alert != nil, w.Alert != nil)
		} else if got.Alert != nil && got.Alert.Reason != w.Alert.Reason {
			t.Errorf("%s: alert reason %q != serial %q", docs[i].ID, got.Alert.Reason, w.Alert.Reason)
		}
	}
}

// TestProcessBatchSingleWorkerIsSerial checks the degenerate pool.
func TestProcessBatchSingleWorkerIsSerial(t *testing.T) {
	docs := mixedCorpus(t, 9)
	sys := newSystem(t, 8.0)
	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 1})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d failures", n)
	}
	for i, v := range res.Verdicts {
		if v == nil || v.DocID != docs[i].ID {
			t.Fatalf("slot %d: %+v", i, v)
		}
	}
}

// TestProcessBatchEmpty covers the zero-document edge.
func TestProcessBatchEmpty(t *testing.T) {
	sys := newSystem(t, 8.0)
	res := sys.ProcessBatchContext(t.Context(), nil, BatchOptions{Workers: 4})
	if len(res.Verdicts) != 0 || len(res.Errors) != 0 || res.Failed() != 0 {
		t.Fatalf("unexpected result for empty batch: %+v", res)
	}
}

// TestProcessBatchCollectsPerDocumentErrors feeds one unparseable document
// in the middle of a batch and expects the rest to succeed.
func TestProcessBatchCollectsPerDocumentErrors(t *testing.T) {
	docs := mixedCorpus(t, 6)
	docs[3] = BatchDoc{ID: "broken", Raw: []byte("not a pdf at all")}
	sys := newSystem(t, 8.0)
	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 3})
	if res.Failed() != 1 {
		t.Fatalf("failed = %d, want 1 (errors: %v)", res.Failed(), res.Errors)
	}
	if res.Errors[3] == nil || res.Verdicts[3] != nil {
		t.Fatalf("slot 3: err=%v verdict=%v", res.Errors[3], res.Verdicts[3])
	}
	for i, v := range res.Verdicts {
		if i == 3 {
			continue
		}
		if v == nil || res.Errors[i] != nil {
			t.Fatalf("slot %d should have succeeded: err=%v", i, res.Errors[i])
		}
	}
}

// TestSessionRecycleFreshState verifies a recycled session behaves like a
// fresh reader process: crash state and document memory are gone, the PID
// changes, and the hook connection keeps working.
func TestSessionRecycleFreshState(t *testing.T) {
	sys := newSystem(t, 8.0)
	g := corpus.NewGenerator(777)
	crasher, ok := g.MaliciousFamily("mal-crasher")
	if !ok {
		t.Skip("crasher family missing")
	}
	sess := sys.NewSession()
	defer sess.Close()

	if _, err := sess.Proc.Open("crash-1", crasher.Raw, reader.OpenOptions{}); err != nil {
		// Opening may fail on parse; the crash path is what matters below.
		t.Logf("open: %v", err)
	}
	oldPID := sess.Proc.PID
	sess.Recycle()
	if sess.Proc.PID == oldPID {
		t.Errorf("PID unchanged after recycle: %d", oldPID)
	}
	if sess.Proc.Crashed() {
		t.Error("crash flag survived recycle")
	}
	benign := g.BenignWithJS(1)[0]
	res, err := sys.Instrumenter.InstrumentBytes("post-recycle", benign.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Open(res, reader.OpenOptions{}); err != nil {
		t.Fatalf("open after recycle: %v", err)
	}
}
