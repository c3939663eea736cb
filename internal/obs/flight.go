package obs

import (
	"sort"
	"sync"
	"time"
)

// Flight-recorder retention reasons (TraceRecord.Retained). A trace with
// at least one reason is tail-sampled: it is always kept in the tail
// ring, however much ordinary traffic flows past it.
const (
	RetainErrored = "errored"
	RetainCrashed = "crashed"
	// RetainQuarantined marks convicted documents (an alert fired and
	// runtime confinement quarantined the artifacts).
	RetainQuarantined = "quarantined"
	RetainDeepScan    = "deep-scan"
	RetainSlow        = "slow"
)

// Defaults applied by NewFlightRecorder when the corresponding
// FlightConfig field is zero.
const (
	DefaultFlightRecent  = 128
	DefaultFlightTail    = 256
	DefaultSlowThreshold = 2 * time.Second
)

// FlightConfig tunes a FlightRecorder.
type FlightConfig struct {
	// Recent is the size of the ring holding the last completed traces,
	// interesting or not (0 = DefaultFlightRecent, negative = none).
	Recent int
	// Tail is the size of the tail-sample ring: errored, crashed,
	// quarantined, deep-scanned and over-threshold-slow traces are always
	// retained here, so heavy benign traffic cannot flush the traces an
	// operator actually needs (0 = DefaultFlightTail, negative = none).
	Tail int
	// SlowThreshold is the end-to-end latency above which a trace counts
	// as slow and is tail-retained (0 = DefaultSlowThreshold).
	SlowThreshold time.Duration
	// Obs receives the retention counters (MetricFlightRetained per
	// reason); nil-safe.
	Obs *Registry
}

// TraceRecord is one retained trace with its retention metadata.
type TraceRecord struct {
	// Seq is the recorder-assigned completion sequence (total order of
	// completions, newest highest).
	Seq uint64 `json:"seq"`
	// TotalSeconds is the submission's end-to-end latency.
	TotalSeconds float64 `json:"total_seconds"`
	// Retained lists why the trace was tail-sampled (empty for ordinary
	// traces living only in the recent ring).
	Retained []string `json:"retained,omitempty"`
	// Trace is the full phase timeline. Traces are immutable once
	// recorded; readers share the pointer.
	Trace *Trace `json:"trace"`
}

// FlightRecorder retains completed document traces in two fixed-size
// rings: a "recent" ring of the last N completions (the rolling context
// an operator reads first), and a "tail" ring where every interesting
// trace — errored, crashed, quarantined, deep-scanned, slow — is kept
// regardless of how much ordinary traffic follows. Memory is bounded by
// the two ring sizes; recording is O(1).
//
// All methods are safe for concurrent use and nil-safe, so optional
// diagnostics wire through the pipeline without guards.
type FlightRecorder struct {
	mu     sync.Mutex
	cfg    FlightConfig
	seq    uint64
	recent ring
	tail   ring
	// retained holds the MetricFlightRetained counter of each retention
	// reason (nil without cfg.Obs).
	retained map[string]*Counter
}

// ring is a fixed-size overwrite-oldest buffer of trace records.
type ring struct {
	buf  []TraceRecord
	next int // insertion index
	full bool
}

func newRing(n int) ring { return ring{buf: make([]TraceRecord, n)} }

func (r *ring) add(rec TraceRecord) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// list returns the ring's records newest-first.
func (r *ring) list() []TraceRecord {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// NewFlightRecorder builds a recorder with the given retention bounds.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Recent == 0 {
		cfg.Recent = DefaultFlightRecent
	}
	if cfg.Tail == 0 {
		cfg.Tail = DefaultFlightTail
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	f := &FlightRecorder{cfg: cfg}
	if cfg.Recent > 0 {
		f.recent = newRing(cfg.Recent)
	}
	if cfg.Tail > 0 {
		f.tail = newRing(cfg.Tail)
	}
	// Register the retention counters at zero so scrapes (and the
	// metric-drift lint) see every reason series from the start, and keep
	// them so Record formats no series name.
	if cfg.Obs != nil {
		f.retained = make(map[string]*Counter)
		for _, reason := range []string{
			RetainErrored, RetainCrashed, RetainQuarantined, RetainDeepScan, RetainSlow,
		} {
			f.retained[reason] = cfg.Obs.Counter(Series(MetricFlightRetained, "reason", reason))
		}
	}
	return f
}

// SlowThreshold reports the configured slow-trace retention threshold.
func (f *FlightRecorder) SlowThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return f.cfg.SlowThreshold
}

// retentionReasons derives why a completed trace must be tail-sampled.
func (f *FlightRecorder) retentionReasons(tr *Trace, total time.Duration) []string {
	var reasons []string
	switch {
	case tr.Error != "" || tr.Outcome == OutcomeErrored:
		reasons = append(reasons, RetainErrored)
	case tr.Outcome == OutcomeCrashed:
		reasons = append(reasons, RetainCrashed)
	case tr.Outcome == OutcomeMalicious:
		reasons = append(reasons, RetainQuarantined)
	}
	if tr.DeepPaths > 0 || tr.Depth == "deep" {
		reasons = append(reasons, RetainDeepScan)
	}
	if total >= f.cfg.SlowThreshold {
		reasons = append(reasons, RetainSlow)
	}
	return reasons
}

// Record retains one completed trace. The trace must not be mutated
// after this call (the pipeline's contract: a trace is immutable once
// its verdict is returned).
func (f *FlightRecorder) Record(tr *Trace, total time.Duration) {
	if f == nil || tr == nil {
		return
	}
	reasons := f.retentionReasons(tr, total)
	f.mu.Lock()
	f.seq++
	rec := TraceRecord{Seq: f.seq, TotalSeconds: total.Seconds(), Retained: reasons, Trace: tr}
	f.recent.add(rec)
	if len(reasons) > 0 {
		f.tail.add(rec)
	}
	f.mu.Unlock()
	for _, reason := range reasons {
		if c := f.retained[reason]; c != nil {
			c.Inc()
		}
	}
}

// Recent returns up to n of the most recently completed traces,
// newest-first (n <= 0 = all retained).
func (f *FlightRecorder) Recent(n int) []TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := f.recent.list()
	f.mu.Unlock()
	return clip(out, n)
}

// Tail returns up to n tail-sampled traces, newest-first (n <= 0 = all).
func (f *FlightRecorder) Tail(n int) []TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := f.tail.list()
	f.mu.Unlock()
	return clip(out, n)
}

// Find returns every retained record for a document ID, newest-first.
// Tail hits are preferred over recent-ring duplicates of the same
// completion.
func (f *FlightRecorder) Find(docID string) []TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []TraceRecord
	for _, rec := range append(f.tail.list(), f.recent.list()...) {
		if rec.Trace == nil || rec.Trace.DocID != docID || seen[rec.Seq] {
			continue
		}
		seen[rec.Seq] = true
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Slowest returns up to n retained traces ordered by descending
// end-to-end latency, deduplicated across the two rings.
func (f *FlightRecorder) Slowest(n int) []TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	seen := make(map[uint64]bool)
	var out []TraceRecord
	for _, rec := range append(f.tail.list(), f.recent.list()...) {
		if seen[rec.Seq] {
			continue
		}
		seen[rec.Seq] = true
		out = append(out, rec)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSeconds != out[j].TotalSeconds {
			return out[i].TotalSeconds > out[j].TotalSeconds
		}
		return out[i].Seq > out[j].Seq
	})
	return clip(out, n)
}

// FlightStats summarizes the recorder's occupancy.
type FlightStats struct {
	// Recorded is the lifetime count of completed traces seen.
	Recorded uint64 `json:"recorded"`
	// RecentLen and TailLen are the rings' current occupancy;
	// RecentCap/TailCap their bounds.
	RecentLen int `json:"recent_len"`
	RecentCap int `json:"recent_cap"`
	TailLen   int `json:"tail_len"`
	TailCap   int `json:"tail_cap"`
}

// Stats snapshots the recorder.
func (f *FlightRecorder) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FlightStats{
		Recorded:  f.seq,
		RecentCap: len(f.recent.buf),
		TailCap:   len(f.tail.buf),
	}
	st.RecentLen = f.recent.next
	if f.recent.full {
		st.RecentLen = len(f.recent.buf)
	}
	st.TailLen = f.tail.next
	if f.tail.full {
		st.TailLen = len(f.tail.buf)
	}
	return st
}

// clip bounds a newest-first slice to n entries (n <= 0 = no bound).
func clip(recs []TraceRecord, n int) []TraceRecord {
	if n > 0 && len(recs) > n {
		return recs[:n]
	}
	return recs
}
