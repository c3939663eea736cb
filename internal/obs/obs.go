// Package obs is the system's internal observability layer: a
// dependency-free metrics registry (atomic counters, integer gauges,
// fixed-bucket latency histograms, callback-backed metrics) plus
// per-document trace records. Every pipeline phase boundary reports into
// a Registry, and the same data is exposed three ways: a structured
// Snapshot (feeds the public System.Stats), a Prometheus
// text-format writer/HTTP handler (prom.go), and per-document Traces
// attached to verdicts (trace.go).
//
// The paper's whole evaluation (Tables VIII/IX/X, Figure 6) is about
// where time goes — front-end parsing vs. instrumentation vs. runtime
// monitoring — so the phase accounting here is first-class rather than
// bolted on by external stopwatches.
//
// Concurrency: all metric mutation is lock-free (sync/atomic); the
// registry itself takes a short lock only on first registration of a
// series. Metric getters on a nil *Registry are invalid, but the Inc /
// Add / GaugeAdd / GaugeSet / Observe convenience methods are nil-safe,
// so optional instrumentation (detect, instrument) wires in without
// guards.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer gauge (queue depths, resident counts).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram. Bounds are upper bounds
// in seconds, sorted ascending; observations above the last bound land in
// the implicit +Inf bucket. Bucket counts are non-cumulative internally
// and cumulated at snapshot time (the Prometheus convention).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf
	count  atomic.Uint64
	sumNS  atomic.Int64
}

// newHistogram copies bounds (which must be sorted ascending).
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// bucketIndex returns the bucket an observation lands in. Bounds are
// short (tens), so a linear scan beats binary search at this size and
// keeps the hot path branch-predictable.
func (h *Histogram) bucketIndex(seconds float64) int {
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one observation in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.counts[h.bucketIndex(seconds)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(seconds * 1e9))
}

// ObserveDuration records one observation.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumSeconds returns the sum of all observations in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNS.Load()) / 1e9 }

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound in seconds. The
	// implicit +Inf bucket is not listed; its cumulative count equals
	// HistogramSnapshot.Count.
	UpperBound float64 `json:"le"`
	// Count is the cumulative number of observations <= UpperBound.
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of one histogram.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// Mean returns the mean observation in seconds (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumSeconds / float64(h.Count)
}

// snapshot builds the cumulative view.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:      h.count.Load(),
		SumSeconds: h.SumSeconds(),
		Buckets:    make([]Bucket, len(h.bounds)),
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out.Buckets[i] = Bucket{UpperBound: b, Count: cum}
	}
	return out
}

// funcKind distinguishes how a callback metric renders.
type funcKind int

const (
	funcCounter funcKind = iota
	funcGauge
)

// funcMetric is a callback-backed series: its value is computed at
// snapshot/scrape time. Used to fold external counters (the front-end
// cache's own stats) into the registry without double bookkeeping.
type funcMetric struct {
	kind funcKind
	fn   func() float64
}

// Registry is a named set of metrics. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]funcMetric),
	}
}

// Default is the process-wide registry used when a component is not given
// an explicit one. Long-lived
// binaries serve it via -metrics-addr; tests that need isolation pass
// their own NewRegistry.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it on
// first use. Series names may carry a Prometheus label set inline, e.g.
// `pdfshield_feature_triggers_total{feature="F8"}`.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// CounterFunc registers (or replaces) a callback-backed counter series.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = funcMetric{kind: funcCounter, fn: fn}
}

// GaugeFunc registers (or replaces) a callback-backed gauge series.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = funcMetric{kind: funcGauge, fn: fn}
}

// ---- nil-safe convenience methods (optional instrumentation sites) ----

// Inc increments a counter; no-op on a nil registry.
func (r *Registry) Inc(name string) {
	if r == nil {
		return
	}
	r.Counter(name).Inc()
}

// CounterAdd adds n to a counter; no-op on a nil registry.
func (r *Registry) CounterAdd(name string, n uint64) {
	if r == nil {
		return
	}
	r.Counter(name).Add(n)
}

// GaugeAdd moves a gauge; no-op on a nil registry.
func (r *Registry) GaugeAdd(name string, delta int64) {
	if r == nil {
		return
	}
	r.Gauge(name).Add(delta)
}

// GaugeSet sets a gauge; no-op on a nil registry.
func (r *Registry) GaugeSet(name string, v int64) {
	if r == nil {
		return
	}
	r.Gauge(name).Set(v)
}

// Observe records a duration into a latency histogram (created with
// LatencyBuckets on first use); no-op on a nil registry.
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.Histogram(name, LatencyBuckets).ObserveDuration(d)
}

// Snapshot is a structured point-in-time view of a whole registry.
// Callback-backed series are folded into Counters/Gauges by kind. It
// marshals cleanly to JSON (the System.Stats surface).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered series. Nil-safe: a nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return out
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]funcMetric, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.RUnlock()

	// Callbacks run outside the registry lock: they may take their own
	// locks (cache shard mutexes) and must not be able to deadlock us.
	for name, c := range counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		out.Gauges[name] = float64(g.Value())
	}
	for name, h := range hists {
		out.Histograms[name] = h.snapshot()
	}
	for name, f := range funcs {
		v := f.fn()
		switch f.kind {
		case funcCounter:
			if v < 0 {
				v = 0
			}
			out.Counters[name] = uint64(v)
		default:
			out.Gauges[name] = v
		}
	}
	return out
}

// sortedKeys returns the keys of a map in sorted order (deterministic
// exposition output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
