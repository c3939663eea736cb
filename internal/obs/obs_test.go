package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketMath pins the bucket semantics: bounds are inclusive
// upper bounds, observations above the last bound land in +Inf, and the
// snapshot cumulates per the Prometheus convention.
func TestHistogramBucketMath(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{
		0.0005, // first bucket
		0.001,  // exactly on a bound: counts in that bucket (le is <=)
		0.005,  // second bucket
		0.05,   // third bucket
		0.5,    // above every bound: +Inf only
		2.0,    // +Inf
	} {
		h.Observe(v)
	}
	snap := h.snapshot()
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	wantCum := []uint64{2, 3, 4}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%g cumulative = %d, want %d", b.UpperBound, b.Count, wantCum[i])
		}
	}
	wantSum := 0.0005 + 0.001 + 0.005 + 0.05 + 0.5 + 2.0
	if math.Abs(snap.SumSeconds-wantSum) > 1e-6 {
		t.Errorf("sum = %g, want %g", snap.SumSeconds, wantSum)
	}
	if mean := snap.Mean(); math.Abs(mean-wantSum/6) > 1e-6 {
		t.Errorf("mean = %g, want %g", mean, wantSum/6)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty histogram mean should be 0")
	}
}

// TestRegistryGetOrCreate verifies the same series name yields the same
// metric, and that a histogram's bounds are fixed at first registration.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Add(3)
	if got := r.Counter("a_total").Value(); got != 3 {
		t.Fatalf("re-fetched counter = %d, want 3", got)
	}
	h := r.Histogram("h_seconds", []float64{1, 2})
	h.Observe(1.5)
	h2 := r.Histogram("h_seconds", []float64{100, 200}) // bounds ignored
	if h2 != h {
		t.Fatal("second Histogram call returned a different metric")
	}
	if got := len(h2.snapshot().Buckets); got != 2 {
		t.Fatalf("bounds replaced on re-registration: %d buckets", got)
	}
}

// TestNilRegistryConvenience proves the optional-instrumentation methods
// are safe without a registry.
func TestNilRegistryConvenience(t *testing.T) {
	var r *Registry
	r.Inc("x")
	r.CounterAdd("x", 2)
	r.GaugeAdd("g", 1)
	r.GaugeSet("g", 5)
	r.Observe("h", time.Millisecond)
	r.CounterFunc("cf", func() float64 { return 1 })
	r.GaugeFunc("gf", func() float64 { return 1 })
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestSnapshotFuncs checks callback-backed series fold into the snapshot
// by kind, negative counter callbacks clamp to zero, and re-registration
// replaces the callback.
func TestSnapshotFuncs(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("cache_hits_total", func() float64 { return 42 })
	r.GaugeFunc("cache_bytes", func() float64 { return 1024 })
	r.CounterFunc("weird_total", func() float64 { return -5 })
	snap := r.Snapshot()
	if snap.Counters["cache_hits_total"] != 42 {
		t.Errorf("counter func = %d, want 42", snap.Counters["cache_hits_total"])
	}
	if snap.Gauges["cache_bytes"] != 1024 {
		t.Errorf("gauge func = %g, want 1024", snap.Gauges["cache_bytes"])
	}
	if snap.Counters["weird_total"] != 0 {
		t.Errorf("negative counter func = %d, want clamped 0", snap.Counters["weird_total"])
	}
	r.CounterFunc("cache_hits_total", func() float64 { return 7 })
	if got := r.Snapshot().Counters["cache_hits_total"]; got != 7 {
		t.Errorf("replaced counter func = %d, want 7", got)
	}
}

// TestConcurrentObservation hammers one registry from many goroutines;
// the counts must be exact (lock-free does not mean lossy) and -race must
// stay quiet.
func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Inc("c_total")
				r.GaugeAdd("g", 1)
				r.Observe("h_seconds", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c_total"] != goroutines*per {
		t.Errorf("counter = %d, want %d", snap.Counters["c_total"], goroutines*per)
	}
	if snap.Gauges["g"] != goroutines*per {
		t.Errorf("gauge = %g, want %d", snap.Gauges["g"], goroutines*per)
	}
	if snap.Histograms["h_seconds"].Count != goroutines*per {
		t.Errorf("histogram count = %d, want %d", snap.Histograms["h_seconds"].Count, goroutines*per)
	}
}

// TestSeriesRoundTrip checks label composition, escaping, and parsing.
func TestSeriesRoundTrip(t *testing.T) {
	cases := []struct{ label, value string }{
		{"phase", "parse"},
		{"feature", `F8:has"quote`},
		{"feature", `back\slash`},
		{"feature", "new\nline"},
	}
	for _, c := range cases {
		s := Series("m_total", c.label, c.value)
		base, labels := SplitSeries(s)
		if base != "m_total" || labels == "" {
			t.Errorf("SplitSeries(%q) = (%q, %q)", s, base, labels)
		}
		if got := LabelValue(s, c.label); got != c.value {
			t.Errorf("LabelValue(%q, %q) = %q, want %q", s, c.label, got, c.value)
		}
	}
	if base, labels := SplitSeries("plain_total"); base != "plain_total" || labels != "" {
		t.Errorf("unlabelled split = (%q, %q)", base, labels)
	}
	if got := LabelValue("plain_total", "phase"); got != "" {
		t.Errorf("LabelValue on unlabelled series = %q, want empty", got)
	}
}

// TestWritePrometheus pins the text exposition format: one TYPE line per
// family, labeled histogram series with merged le labels, cumulative
// buckets ending in +Inf, and _sum/_count lines.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdfshield_docs_total").Add(3)
	r.Counter(Series("pdfshield_feature_triggers_total", "feature", "F5")).Add(2)
	r.Gauge("pdfshield_batch_workers").Set(4)
	h := r.Histogram(PhaseSeries(PhaseParse), []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE pdfshield_docs_total counter\n",
		"pdfshield_docs_total 3\n",
		"# TYPE pdfshield_feature_triggers_total counter\n",
		`pdfshield_feature_triggers_total{feature="F5"} 2` + "\n",
		"# TYPE pdfshield_batch_workers gauge\n",
		"pdfshield_batch_workers 4\n",
		"# TYPE pdfshield_phase_seconds histogram\n",
		`pdfshield_phase_seconds_bucket{phase="parse",le="0.001"} 1` + "\n",
		`pdfshield_phase_seconds_bucket{phase="parse",le="0.01"} 2` + "\n",
		`pdfshield_phase_seconds_bucket{phase="parse",le="+Inf"} 3` + "\n",
		`pdfshield_phase_seconds_count{phase="parse"} 3` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE pdfshield_phase_seconds ") != 1 {
		t.Error("TYPE line for the histogram family should appear exactly once")
	}
	if !strings.Contains(text, `pdfshield_phase_seconds_sum{phase="parse"} 0.50`) {
		t.Errorf("sum line missing or wrong:\n%s", text)
	}
}

// TestSnapshotJSON proves the structured snapshot (the System.Stats
// surface) marshals and unmarshals without loss.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(9)
	r.Gauge("g").Set(-2)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c_total"] != 9 || back.Gauges["g"] != -2 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if hs := back.Histograms["h_seconds"]; hs.Count != 1 || len(hs.Buckets) != 1 {
		t.Fatalf("histogram round-trip mismatch: %+v", hs)
	}
}
