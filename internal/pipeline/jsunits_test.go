package pipeline

import (
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/reader"
)

// TestRecycledSessionKeepsCompiledUnits pins the compiled-unit retention
// contract: instrumentation precompiles the monitoring code, the first open
// runs warm, and a recycled session re-opens the same document with zero
// new compiles — Recycle discards reader state, never compiled units.
func TestRecycledSessionKeepsCompiledUnits(t *testing.T) {
	units := js.NewUnitCache(8 << 20)
	reg := obs.NewRegistry()
	sys, err := NewSystem(Options{ViewerVersion: 9.0, Seed: 424, Obs: reg, JSUnits: units})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	g := corpus.NewGenerator(616)
	s := g.BenignWithJS(1)[0]
	res, err := sys.Instrumenter.InstrumentBytes(s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	warmed := units.Stats()
	if warmed.Entries == 0 || warmed.Misses == 0 {
		t.Fatalf("instrument-time precompilation left the unit cache empty: %+v", warmed)
	}

	sess := sys.NewSession()
	defer sess.Close()

	if _, err := sess.Open(res, reader.OpenOptions{}); err != nil {
		t.Fatalf("first open: %v", err)
	}
	st1 := units.Stats()
	if st1.Hits == 0 {
		t.Fatalf("first open compiled from scratch instead of hitting precompiled units: %+v", st1)
	}

	sess.Recycle()
	if _, err := sess.Open(res, reader.OpenOptions{}); err != nil {
		t.Fatalf("open after recycle: %v", err)
	}
	st2 := units.Stats()
	if st2.Misses != st1.Misses {
		t.Fatalf("recycled session re-compiled scripts: misses %d -> %d", st1.Misses, st2.Misses)
	}
	if st2.Hits <= st1.Hits {
		t.Fatalf("recycled open did not hit the unit cache: hits %d -> %d", st1.Hits, st2.Hits)
	}

	// The same counters must surface through Stats() and the obs registry.
	if got := sys.Stats().JSUnits; got != st2 {
		t.Fatalf("Stats().JSUnits = %+v, want %+v", got, st2)
	}
	snap := reg.Snapshot()
	if uint64(snap.Counters[obs.MetricJSUnitsHits]) != st2.Hits {
		t.Errorf("%s = %d, want %d", obs.MetricJSUnitsHits, snap.Counters[obs.MetricJSUnitsHits], st2.Hits)
	}
	if uint64(snap.Counters[obs.MetricJSUnitsMisses]) != st2.Misses {
		t.Errorf("%s = %d, want %d", obs.MetricJSUnitsMisses, snap.Counters[obs.MetricJSUnitsMisses], st2.Misses)
	}
	if hs, ok := snap.Histograms[obs.MetricJSCompileSeconds]; !ok || hs.Count == 0 {
		t.Errorf("%s histogram empty (ok=%v)", obs.MetricJSCompileSeconds, ok)
	}
}

// TestConcurrentBatchSharesUnitCache drives JS-bearing documents through
// the batch engine with a wide worker pool sharing one unit cache: workers
// warm it during instrumentation and hit it during opens concurrently.
// Under `make race` this is the data-race gate for UnitCache.Load and VM
// dispatch of shared compiled units.
func TestConcurrentBatchSharesUnitCache(t *testing.T) {
	units := js.NewUnitCache(32 << 20)
	sys, err := NewSystem(Options{ViewerVersion: 9.0, Seed: 99, Obs: obs.NewRegistry(), JSUnits: units})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	g := corpus.NewGenerator(31337)
	samples := g.BenignWithJS(12)
	for i := 0; i < 8; i++ {
		samples = append(samples, g.BenignInteractiveJS())
	}
	docs := make([]BatchDoc, len(samples))
	for i, s := range samples {
		docs[i] = BatchDoc{ID: s.ID, Raw: s.Raw}
	}

	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 8})
	if failed := res.Failed(); failed != 0 {
		t.Fatalf("%d documents failed", failed)
	}
	st := units.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("shared unit cache unused across the batch: %+v", st)
	}
}
