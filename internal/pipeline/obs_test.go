package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/obs"
)

// newObservedSystem builds a System reporting into a private registry, so
// assertions on exact counts are isolated from other tests (everything
// else in the package lands in obs.Default).
func newObservedSystem(t *testing.T, withCache bool) (*System, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := Options{ViewerVersion: 8.0, Seed: 99, Obs: reg}
	if withCache {
		opts.Cache = &cache.Config{}
	}
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys, reg
}

// TestProcessDocumentContextPreCancelled: an already-dead context stops
// the pipeline before any phase runs and surfaces as the document's error
// (counted as errored, not as a verdict), on a one-shot call and on a
// Worker lane alike.
func TestProcessDocumentContextPreCancelled(t *testing.T) {
	sys, reg := newObservedSystem(t, false)
	docs := mixedCorpus(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := sys.ProcessDocumentContext(ctx, docs[0].ID, docs[0].Raw)
	if v != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", v, err)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MetricDocsTotal] != 1 || snap.Counters[obs.MetricDocsErrored] != 1 {
		t.Fatalf("counters = total %d / errored %d, want 1/1",
			snap.Counters[obs.MetricDocsTotal], snap.Counters[obs.MetricDocsErrored])
	}

	// A long-lived Worker lane decides the same way: the document handed
	// to it is counted as errored.
	w := sys.NewWorker()
	defer w.Close()
	if v, err := w.Process(ctx, docs[0]); v != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Worker.Process got (%v, %v), want (nil, context.Canceled)", v, err)
	}
	snap = reg.Snapshot()
	if snap.Counters[obs.MetricDocsTotal] != 2 || snap.Counters[obs.MetricDocsErrored] != 2 {
		t.Fatalf("after Worker.Process counters = total %d / errored %d, want 2/2",
			snap.Counters[obs.MetricDocsTotal], snap.Counters[obs.MetricDocsErrored])
	}
}

// TestBatchCancellationPrefixIntact cancels a batch mid-run and checks the
// contract: documents finished before the cancellation keep their
// verdicts, every remaining slot carries ctx.Err(), no slot has both, and
// the worker pool shuts down without leaking goroutines.
func TestBatchCancellationPrefixIntact(t *testing.T) {
	sys, reg := newObservedSystem(t, false)
	all := mixedCorpus(t, 21)
	warmDocs, docs := all[18:], all[:18]

	// Warm the system first so the goroutine baseline includes its
	// steady-state infrastructure (accept loops, HTTP keep-alive
	// connections) rather than attributing those to the cancelled batch.
	// Distinct documents: the registry's duplicate rule forbids
	// re-instrumenting bytes the warm-up already claimed.
	warm := sys.ProcessBatchContext(t.Context(), warmDocs, BatchOptions{Workers: 2})
	if n := warm.Failed(); n != 0 {
		t.Fatalf("warm-up failed %d docs: %v", n, warm.Errors)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int32
	analysisHook = func(string) {
		if seen.Add(1) == 5 {
			cancel()
		}
	}
	defer func() { analysisHook = nil }()

	res := sys.ProcessBatchContext(ctx, docs, BatchOptions{Workers: 2})

	verdicts, cancelled := 0, 0
	for i := range docs {
		v, err := res.Verdicts[i], res.Errors[i]
		if (v == nil) == (err == nil) {
			t.Fatalf("slot %d: verdict=%v err=%v, want exactly one", i, v, err)
		}
		switch {
		case v != nil:
			verdicts++
			if v.DocID != docs[i].ID {
				t.Errorf("slot %d verdict names %s", i, v.DocID)
			}
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Errorf("slot %d: unexpected error %v", i, err)
		}
	}
	if verdicts == 0 {
		t.Error("no document finished before the cancellation")
	}
	if cancelled == 0 {
		t.Error("no slot reports the cancellation")
	}

	// The queue-depth and worker gauges must return to zero, and the pool's
	// goroutines must be gone (give the scheduler a moment under -race).
	snap := reg.Snapshot()
	if d := snap.Gauges[obs.MetricBatchQueueDepth]; d != 0 {
		t.Errorf("queue depth after batch = %g, want 0", d)
	}
	if w := snap.Gauges[obs.MetricBatchWorkers]; w != 0 {
		t.Errorf("batch workers after batch = %g, want 0", w)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsAndTracesConsistentWithBatch is the acceptance check: after a
// batch, System.Stats() and each Verdict.Trace round-trip through JSON
// with values consistent with the BatchResult's own counts.
func TestStatsAndTracesConsistentWithBatch(t *testing.T) {
	sys, reg := newObservedSystem(t, true)
	docs := mixedCorpus(t, 15)
	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 3})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d failures: %v", n, res.Errors)
	}

	var malicious, nojs uint64
	for i, v := range res.Verdicts {
		if v.Malicious {
			malicious++
		}
		if v.NoJavaScript {
			nojs++
		}
		tr := v.Trace
		if tr == nil {
			t.Fatalf("verdict %d (%s) has no trace", i, v.DocID)
		}
		if tr.DocID != docs[i].ID {
			t.Errorf("trace %d names %s, want %s", i, tr.DocID, docs[i].ID)
		}
		wantOutcome := obs.OutcomeBenign
		switch {
		case v.Malicious:
			wantOutcome = obs.OutcomeMalicious
		case v.NoJavaScript:
			wantOutcome = obs.OutcomeNoJavaScript
		case v.Crashed:
			wantOutcome = obs.OutcomeCrashed
		}
		if tr.Outcome != wantOutcome {
			t.Errorf("trace %d outcome %q, verdict says %q", i, tr.Outcome, wantOutcome)
		}
		if tr.Cache == "" || len(tr.Spans) == 0 {
			t.Errorf("trace %d incomplete: cache=%q spans=%d", i, tr.Cache, len(tr.Spans))
		}
		if !v.NoJavaScript {
			last := tr.Spans[len(tr.Spans)-1]
			if last.Phase != obs.PhaseDetect {
				t.Errorf("trace %d last span %q, want detect", i, last.Phase)
			}
		}
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("trace %d marshal: %v", i, err)
		}
		var back obs.Trace
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trace %d unmarshal: %v", i, err)
		}
		if back.Outcome != tr.Outcome || len(back.Spans) != len(tr.Spans) {
			t.Errorf("trace %d JSON round-trip mismatch", i)
		}
	}

	st := sys.Stats()
	if st.Docs.Total != uint64(len(docs)) {
		t.Errorf("stats total = %d, want %d", st.Docs.Total, len(docs))
	}
	if st.Docs.Malicious != malicious || st.Docs.NoJavaScript != nojs {
		t.Errorf("stats malicious/nojs = %d/%d, batch counted %d/%d",
			st.Docs.Malicious, st.Docs.NoJavaScript, malicious, nojs)
	}
	if want := uint64(len(docs)) - malicious - nojs - st.Docs.Crashed; st.Docs.Benign != want {
		t.Errorf("stats benign = %d, want %d", st.Docs.Benign, want)
	}
	if cs, _ := sys.CacheStats(); st.Cache == nil || st.Cache.Misses != cs.Misses {
		t.Errorf("stats cache = %+v, system cache reports %+v", st.Cache, cs)
	}
	for _, phase := range []string{
		obs.PhaseParse, obs.PhaseAnalyze, obs.PhaseInstrument,
		obs.PhaseOpen, obs.PhaseDetect, "total",
	} {
		ph, ok := st.Phases[phase]
		if !ok || ph.Count == 0 {
			t.Errorf("phase %q missing from stats (%+v)", phase, st.Phases)
		}
	}
	if tot := st.Phases["total"]; tot.Count != uint64(len(docs)) {
		t.Errorf("total phase count = %d, want %d", tot.Count, len(docs))
	}
	if len(st.Detect.FeatureTriggers) == 0 || st.Detect.Alerts == 0 {
		t.Errorf("detector stats empty: %+v", st.Detect)
	}

	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Docs != st.Docs || back.Detect.Alerts != st.Detect.Alerts ||
		len(back.Phases) != len(st.Phases) {
		t.Errorf("stats JSON round-trip mismatch:\n got %+v\nwant %+v", back, st)
	}

	// The same registry must expose every phase in Prometheus text form
	// (what -metrics-addr serves).
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, phase := range []string{
		obs.PhaseParse, obs.PhaseAnalyze, obs.PhaseInstrument,
		obs.PhaseOpen, obs.PhaseDetect,
	} {
		series := obs.PhaseSeries(phase)
		base, labels := obs.SplitSeries(series)
		if !strings.Contains(text, base+"_count{"+labels+"}") {
			t.Errorf("prometheus output missing phase %q", phase)
		}
	}
	if !strings.Contains(text, "# TYPE pdfshield_doc_seconds histogram") {
		t.Error("prometheus output missing the end-to-end latency histogram")
	}
}

// TestSessionsActiveGauge: sessions move the gauge symmetrically and a
// double Close does not skew it.
func TestSessionsActiveGauge(t *testing.T) {
	sys, reg := newObservedSystem(t, false)
	sess := sys.NewSession()
	if g := reg.Snapshot().Gauges[obs.MetricSessionsActive]; g != 1 {
		t.Fatalf("gauge after open = %g, want 1", g)
	}
	sess.Close()
	sess.Close() // idempotent
	if g := reg.Snapshot().Gauges[obs.MetricSessionsActive]; g != 0 {
		t.Fatalf("gauge after close = %g, want 0", g)
	}
}
