package pipeline

import (
	"strings"
	"testing"
)

// TestBatchContainsPanickingDocument injects a panic into one document of a
// 50-document batch and asserts (a) the batch completes, (b) the poisoned
// slot carries a fail-closed error, and (c) every other verdict matches the
// serial baseline — a crashing document must not take its neighbours' results
// down with it or skew them.
func TestBatchContainsPanickingDocument(t *testing.T) {
	docs := mixedCorpus(t, 50)
	const corrupt = 17 // arbitrary mid-batch slot

	serial := newSystem(t, 8.0)
	want := make([]*Verdict, len(docs))
	for i, d := range docs {
		v, err := serial.ProcessDocumentContext(t.Context(), d.ID, d.Raw)
		if err != nil {
			t.Fatalf("serial %s: %v", d.ID, err)
		}
		want[i] = v
	}

	analysisHook = func(docID string) {
		if docID == docs[corrupt].ID {
			panic("injected analyzer crash")
		}
	}
	defer func() { analysisHook = nil }()

	parallel := newSystem(t, 8.0)
	res := parallel.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 8})

	if n := res.Failed(); n != 1 {
		t.Fatalf("failed count = %d, want exactly 1 (the corrupt slot)", n)
	}
	if err := res.Errors[corrupt]; err == nil || !strings.Contains(err.Error(), "analysis panic") {
		t.Fatalf("corrupt slot error = %v, want analysis panic", err)
	}
	if res.Verdicts[corrupt] != nil {
		t.Fatalf("corrupt slot has a verdict %+v alongside its error", res.Verdicts[corrupt])
	}

	for i, got := range res.Verdicts {
		if i == corrupt {
			continue
		}
		w := want[i]
		if got == nil {
			t.Fatalf("verdict %d (%s) missing: %v", i, docs[i].ID, res.Errors[i])
		}
		if got.Malicious != w.Malicious || got.NoJavaScript != w.NoJavaScript || got.Crashed != w.Crashed {
			t.Errorf("%s: verdict (mal=%v nojs=%v crash=%v) != serial (mal=%v nojs=%v crash=%v)",
				docs[i].ID, got.Malicious, got.NoJavaScript, got.Crashed, w.Malicious, w.NoJavaScript, w.Crashed)
		}
	}
}

// TestSerialProcessContainsPanic proves the public serial path fails closed
// too: the injected panic surfaces as an error, and the system remains usable
// for the next document.
func TestSerialProcessContainsPanic(t *testing.T) {
	docs := mixedCorpus(t, 2)

	analysisHook = func(docID string) {
		if docID == docs[0].ID {
			panic("injected analyzer crash")
		}
	}
	defer func() { analysisHook = nil }()

	sys := newSystem(t, 8.0)
	v, err := sys.ProcessDocumentContext(t.Context(), docs[0].ID, docs[0].Raw)
	if err == nil || !strings.Contains(err.Error(), "analysis panic") {
		t.Fatalf("err = %v, want analysis panic", err)
	}
	if v != nil {
		t.Fatalf("got verdict %+v alongside panic error", v)
	}

	// The same system must still process the next document normally.
	v, err = sys.ProcessDocumentContext(t.Context(), docs[1].ID, docs[1].Raw)
	if err != nil {
		t.Fatalf("post-panic document: %v", err)
	}
	if v == nil {
		t.Fatal("post-panic document: nil verdict")
	}
}

// TestWorkerSessionDiscardedAfterPanic drives a single worker through a
// panicking document followed by good ones, proving the worker rebuilds its
// session instead of recycling a poisoned reader process.
func TestWorkerSessionDiscardedAfterPanic(t *testing.T) {
	docs := mixedCorpus(t, 6)
	const corrupt = 2

	analysisHook = func(docID string) {
		if docID == docs[corrupt].ID {
			panic("injected analyzer crash")
		}
	}
	defer func() { analysisHook = nil }()

	sys := newSystem(t, 8.0)
	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 1})
	if n := res.Failed(); n != 1 {
		t.Fatalf("failed count = %d, want 1; errors %v", n, res.Errors)
	}
	for i, v := range res.Verdicts {
		if i == corrupt {
			continue
		}
		if v == nil {
			t.Fatalf("doc %d (%s) after panic: %v", i, docs[i].ID, res.Errors[i])
		}
	}
}
