package obs

import (
	"runtime"
	"sync"
	"time"
)

// DefaultStallDeadline and DefaultStallInterval apply when the
// corresponding WatchdogConfig field is zero. The watchdog keeps the
// DefaultMaxStalls newest stall reports, each goroutine dump cut at
// DefaultStackBytes.
const (
	DefaultStallDeadline = 30 * time.Second
	DefaultStallInterval = 1 * time.Second
	DefaultMaxStalls     = 32
	DefaultStackBytes    = 256 << 10
)

// WatchdogConfig tunes the stall watchdog.
type WatchdogConfig struct {
	// Deadline is how long a document may sit in a watched phase before
	// it is flagged as stalled (0 = DefaultStallDeadline).
	Deadline time.Duration
	// Interval is the background scan period (0 = DefaultStallInterval).
	Interval time.Duration
	// Context, when set, fetches out-of-band context for a stalled
	// document — the pipeline wires it to the journal's recent events for
	// the doc. The value is embedded verbatim in the stall report's JSON.
	Context func(docID string) any
	// Obs receives MetricWatchdogStalls; nil-safe.
	Obs *Registry
}

// InflightDoc is the watchdog's handle on one in-flight document. The
// processing goroutine updates it through Trace.MarkPhase at phase
// boundaries and releases it with Done; the watchdog's scan loop reads
// it concurrently. All methods are nil-safe so unwatched pipelines pay
// only a nil check.
type InflightDoc struct {
	wd    *Watchdog
	docID string

	mu      sync.Mutex
	phase   string
	since   time.Time // when the current phase began
	flagged bool      // already reported stalled in this phase
	done    bool
}

// Phase records that the document is entering a phase, resetting its
// stall clock.
func (d *InflightDoc) Phase(phase string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.phase = phase
	d.since = d.wd.now()
	d.flagged = false
	d.mu.Unlock()
}

// Done releases the handle; the watchdog stops considering the document.
func (d *InflightDoc) Done() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.done = true
	d.mu.Unlock()
	d.wd.remove(d)
}

// StallReport is one captured stall: a document stuck past the deadline
// in a watched phase.
type StallReport struct {
	DocID string    `json:"doc_id"`
	Phase string    `json:"phase"`
	Since time.Time `json:"since"`
	// Stalled is how long the document had been in the phase at capture.
	Stalled time.Duration `json:"stalled_ns"`
	// Goroutines is the full goroutine dump taken at capture
	// (runtime.Stack all=true), bounded by DefaultStackBytes.
	Goroutines string `json:"goroutines"`
	// Journal is the document's recent journal context, if a Context
	// fetcher is configured.
	Journal any `json:"journal,omitempty"`
}

// watchedPhases are the phases the watchdog watches: the reader-runtime
// phases, the only ones where a hostile document can wedge the sandbox
// (front-end phases are pure Go and bounded).
var watchedPhases = map[string]bool{PhaseOpen: true, PhaseDetect: true}

// Watchdog watches in-flight documents and captures a goroutine dump
// plus journal context for any stuck past the deadline in a watched
// phase. A stalled document is reported once per phase; reports are kept
// in a bounded newest-first list.
type Watchdog struct {
	cfg WatchdogConfig

	mu      sync.Mutex
	docs    map[*InflightDoc]struct{}
	reports []StallReport
	stalls  uint64
	stopped bool
	stop    chan struct{}

	// nowFn is injectable for tests.
	nowFn func() time.Time
}

// NewWatchdog builds and starts a watchdog; Stop ends its scan loop.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Deadline <= 0 {
		cfg.Deadline = DefaultStallDeadline
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultStallInterval
	}
	w := &Watchdog{
		cfg:   cfg,
		docs:  make(map[*InflightDoc]struct{}),
		stop:  make(chan struct{}),
		nowFn: time.Now,
	}
	for p := range watchedPhases {
		// Preregister the stall counter for every watched phase.
		cfg.Obs.CounterAdd(Series(MetricWatchdogStalls, "phase", p), 0)
	}
	go w.loop()
	return w
}

func (w *Watchdog) now() time.Time {
	if w == nil {
		return time.Now()
	}
	return w.nowFn()
}

// Begin registers a document as in-flight and returns its handle (nil
// receiver returns a nil handle, which is safe everywhere).
func (w *Watchdog) Begin(docID string) *InflightDoc {
	if w == nil {
		return nil
	}
	d := &InflightDoc{wd: w, docID: docID, since: w.now()}
	w.mu.Lock()
	if !w.stopped {
		w.docs[d] = struct{}{}
	}
	w.mu.Unlock()
	return d
}

func (w *Watchdog) remove(d *InflightDoc) {
	if w == nil {
		return
	}
	w.mu.Lock()
	delete(w.docs, d)
	w.mu.Unlock()
}

// Stop ends the scan loop. Idempotent.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if !w.stopped {
		w.stopped = true
		close(w.stop)
	}
	w.mu.Unlock()
}

func (w *Watchdog) loop() {
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.Scan()
		}
	}
}

// Scan checks every in-flight document once and captures reports for
// newly stalled ones. The background loop calls it on each tick; tests
// call it directly for determinism.
func (w *Watchdog) Scan() {
	if w == nil {
		return
	}
	now := w.now()
	w.mu.Lock()
	candidates := make([]*InflightDoc, 0, len(w.docs))
	for d := range w.docs {
		candidates = append(candidates, d)
	}
	w.mu.Unlock()

	type stalled struct {
		docID string
		phase string
		since time.Time
	}
	var hits []stalled
	for _, d := range candidates {
		d.mu.Lock()
		if !d.done && !d.flagged && watchedPhases[d.phase] && now.Sub(d.since) >= w.cfg.Deadline {
			d.flagged = true
			hits = append(hits, stalled{docID: d.docID, phase: d.phase, since: d.since})
		}
		d.mu.Unlock()
	}
	if len(hits) == 0 {
		return
	}

	// One dump covers every goroutine, including all stalled documents'.
	buf := make([]byte, DefaultStackBytes)
	buf = buf[:runtime.Stack(buf, true)]
	dump := string(buf)

	for _, h := range hits {
		rep := StallReport{
			DocID:      h.docID,
			Phase:      h.phase,
			Since:      h.since,
			Stalled:    now.Sub(h.since),
			Goroutines: dump,
		}
		if w.cfg.Context != nil {
			rep.Journal = w.cfg.Context(h.docID)
		}
		w.mu.Lock()
		w.stalls++
		w.reports = append([]StallReport{rep}, w.reports...)
		if len(w.reports) > DefaultMaxStalls {
			w.reports = w.reports[:DefaultMaxStalls]
		}
		w.mu.Unlock()
		w.cfg.Obs.Inc(Series(MetricWatchdogStalls, "phase", h.phase))
	}
}

// Reports returns the captured stall reports, newest-first.
func (w *Watchdog) Reports() []StallReport {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]StallReport, len(w.reports))
	copy(out, w.reports)
	return out
}

// Stalls is the lifetime count of captured stalls.
func (w *Watchdog) Stalls() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalls
}

// Inflight reports how many documents the watchdog is tracking.
func (w *Watchdog) Inflight() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.docs)
}

// WatchdogStats summarizes the watchdog for Stats surfaces.
type WatchdogStats struct {
	Inflight int    `json:"inflight"`
	Stalls   uint64 `json:"stalls"`
	// DeadlineSeconds echoes the configured stall deadline.
	DeadlineSeconds float64 `json:"deadline_seconds"`
}

// Stats snapshots the watchdog.
func (w *Watchdog) Stats() WatchdogStats {
	if w == nil {
		return WatchdogStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WatchdogStats{
		Inflight:        len(w.docs),
		Stalls:          w.stalls,
		DeadlineSeconds: w.cfg.Deadline.Seconds(),
	}
}
