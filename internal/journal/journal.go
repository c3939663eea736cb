// Package journal is the system's forensic event log: an append-only,
// JSONL-encoded record of every runtime-significant event — Javascript
// context transitions, hooked API calls with the confinement decision
// returned, feature triggers F6–F13, fake-message detections, confinement
// actions and alerts with their per-feature malscore breakdown. Where the
// metrics registry (internal/obs) answers "how many" and traces answer
// "how long", the journal answers "what exactly happened, in what order" —
// the CWSandbox-style behaviour log security analysts treat as the primary
// artifact once an alert has fired.
//
// The journal is also the system's golden regression harness: every event
// the runtime detector consumes (context notifications, hook events,
// per-document state retirement) is recorded verbatim, so detect.Replay
// can re-feed the stream through a fresh detector state machine and
// reproduce the identical feature vectors, malscores and alert ordering
// offline (checked by Diff; see `pdfshield-detect -replay`).
//
// Writes are lock-cheap (one buffered writer behind a single mutex) and
// fail-open: a sink error never blocks or fails detection — it is counted
// into the obs registry and reported via Writer.Err, and the writer keeps
// accepting (and dropping) events.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pdfshield/internal/obs"
)

// Event types. Detector-origin events (ctx, fake-message, hook, feature,
// confine, alert, forget) are emitted while the detector's state lock is
// held, so their journal order IS the state-machine order — the property
// replay determinism rests on. Pipeline-origin events (session-start,
// doc-open, verdict) interleave without that lock and are forensic
// context only.
const (
	// TypeSessionStart is the writer's header record (session id, start
	// time); always the journal's first event.
	TypeSessionStart = "session-start"
	// TypeCtx is a validated Javascript-context transition (enter/exit)
	// delivered by soapsrv.Notify.
	TypeCtx = "ctx"
	// TypeFakeMessage is a context notification that failed protection-key
	// validation (mimicry / fake message, §III-D zero tolerance). Carries
	// the raw notify payload so replay re-feeds it verbatim.
	TypeFakeMessage = "fake-message"
	// TypeHook is one captured API call with the confinement decision the
	// detector returned. Feature events triggered by the call precede it
	// in the journal (the decision is only known once handling completes).
	TypeHook = "hook"
	// TypeFeature is the first trigger of one runtime feature (F6–F13) on
	// a document, with the operation string that tripped it.
	TypeFeature = "feature"
	// TypeConfine is one confinement action of Table III (drop blocked,
	// process sandboxed/blocked, injection rejected, artifact isolated,
	// sandboxed process terminated).
	TypeConfine = "confine"
	// TypeAlert is a raised alert with the per-feature malscore breakdown.
	TypeAlert = "alert"
	// TypeForget is the retirement of a document's volatile runtime state
	// (malscore dies with the reader process, §III-E). Replayed, so that
	// out-of-JS attribution sees the same set of live documents.
	TypeForget = "forget"
	// TypeTriage is the static triage tier's routing decision for a
	// document, with the score/feature breakdown behind it. Pipeline-
	// origin and non-canonical by design: a triage-routed document never
	// produces detector events, so replay determinism is preserved — the
	// canonical detector stream is empty either way, and the verdict
	// consistency of routed documents is checked separately
	// (`pdfshield-detect -replay`).
	TypeTriage = "triage"
	// TypeDeepScan is the forced-execution deep-scan summary for one
	// document open: how many paths were explored, how many died on a
	// recovered crash, and whether a budget cut exploration short.
	// Pipeline-origin and non-canonical like TypeTriage: the detector
	// events the forced paths produced are the replayable record; this
	// event explains where they came from.
	TypeDeepScan = "deepscan"
	// TypeDocOpen marks a document entering the pipeline.
	TypeDocOpen = "doc-open"
	// TypeVerdict is the pipeline's final per-document outcome.
	TypeVerdict = "verdict"
)

// Ctx is the payload of TypeCtx and TypeFakeMessage events: the notify as
// received on the wire, replayable verbatim.
type Ctx struct {
	// Event is "enter" or "exit" (soapsrv.EventEnter/EventExit).
	Event string `json:"event"`
	// WireKey is the full "DetectorID:InstrKey" protection key as claimed
	// by the sender (for fake messages it may be garbage).
	WireKey string `json:"wire_key"`
	// Seq is the sender-assigned per-document notification sequence.
	Seq int `json:"seq"`
	// MemMB is the process-memory sample the detector associated with the
	// transition (forensic; replay reconstructs it from hook events).
	MemMB float64 `json:"mem_mb,omitempty"`
	// Static is the F1–F5 vector of the registry record a TypeCtx event
	// validated against. With the event's DocID and Key it is the whole
	// record the detector reads, so replay rebuilds its registry from the
	// journal alone.
	Static []int `json:"static,omitempty"`
}

// Hook is the payload of TypeHook events: the captured call plus the
// decision returned to the hook DLL.
type Hook struct {
	API   string   `json:"api"`
	Args  []string `json:"args,omitempty"`
	MemMB float64  `json:"mem_mb"`
	Seq   int64    `json:"hook_seq,omitempty"`
	// Behavior is the Table II classification of the API.
	Behavior string `json:"behavior"`
	// Action and Note are the confinement decision (Table III).
	Action string `json:"action"`
	Note   string `json:"note,omitempty"`
}

// Feature is the payload of TypeFeature events.
type Feature struct {
	// Index is the 0-based feature index (detect.FOutJSProc..FDLLInject).
	Index int `json:"index"`
	// Name is the canonical feature name ("F11:injs-malware-drop").
	Name string `json:"name"`
	// Op is the recorded suspicious-operation string.
	Op string `json:"op"`
}

// Confinement actions recorded in TypeConfine events.
const (
	ConfineDropBlocked       = "drop-blocked"
	ConfineProcessBlocked    = "process-blocked"
	ConfineSandboxed         = "sandboxed"
	ConfineTerminated        = "terminated"
	ConfineInjectionRejected = "injection-rejected"
	ConfineIsolated          = "isolated"
)

// Confine is the payload of TypeConfine events.
type Confine struct {
	// Action is one of the Confine* constants.
	Action string `json:"action"`
	// Target is the affected path (dropped file, executable, DLL).
	Target string `json:"target,omitempty"`
	// PID is the sandboxed/terminated process, when the action has one.
	PID int `json:"pid,omitempty"`
}

// Alert is the payload of TypeAlert events.
type Alert struct {
	Malscore int `json:"malscore"`
	// Features is the positive feature-name list at alert time.
	Features []string `json:"features"`
	// Breakdown maps each positive feature to its weighted malscore
	// contribution (w1 for F1–F7, w2 for F8–F13).
	Breakdown map[string]int `json:"breakdown,omitempty"`
	// Reason is "malscore" or "fake-message".
	Reason string `json:"reason"`
	// Cause is the validation error text for fake-message alerts.
	Cause string `json:"cause,omitempty"`
	// Isolated and Terminated record confinement results (volatile across
	// replay: quarantine needs the live file system, pids are allocator-
	// dependent — excluded from the canonical comparison form).
	Isolated   []string `json:"isolated,omitempty"`
	Terminated []int    `json:"terminated,omitempty"`
}

// Triage is the payload of TypeTriage events: the route plus the full
// evidence breakdown (suspicion score, abstract-interpretation signals,
// fail-safe markers, census summary). Slices arrive sorted from the
// triage stage, so the payload serializes deterministically.
type Triage struct {
	// Route is "benign", "malicious" or "uncertain".
	Route string `json:"route"`
	// Score is the abstract interpreter's suspicion score.
	Score int `json:"score"`
	// Signals are the suspicious constructs proved reachable.
	Signals []string `json:"signals,omitempty"`
	// Uncertain are the fail-safe conditions that forced (or would have
	// forced) the dynamic path.
	Uncertain []string `json:"uncertain,omitempty"`
	// Static is the F1–F5 vector the census saw.
	Static []int `json:"static,omitempty"`
	// Scripts is how many extracted scripts were analyzed.
	Scripts int `json:"scripts"`
}

// DeepScan is the payload of TypeDeepScan events: per-open forced-
// execution accounting.
type DeepScan struct {
	// Paths is the total explored path count (natural paths included).
	Paths int `json:"paths"`
	// CrashedPaths counts forced paths abandoned on a recovered crash.
	CrashedPaths int `json:"crashed_paths,omitempty"`
	// BudgetExhausted counts scripts whose exploration hit a path, step,
	// or decision budget.
	BudgetExhausted int `json:"budget_exhausted,omitempty"`
}

// Verdict is the payload of TypeVerdict events.
type Verdict struct {
	Malicious    bool   `json:"malicious"`
	NoJavaScript bool   `json:"no_javascript,omitempty"`
	Crashed      bool   `json:"crashed,omitempty"`
	Err          string `json:"err,omitempty"`
	Malscore     int    `json:"malscore,omitempty"`
	// Features is the final 13-feature vector (present for every
	// instrumented document, benign or not).
	Features []int `json:"features,omitempty"`
}

// Event is one journal record. Exactly one payload pointer is set,
// matching T; the correlation fields (DocID, Key, PID) identify which
// document/process the event belongs to where known.
type Event struct {
	// Seq is the writer-assigned monotonically increasing sequence number
	// (starts at 1; the total order of the journal).
	Seq uint64 `json:"seq"`
	// T is the event type (Type* constants).
	T string `json:"t"`
	// TimeNS is the wall-clock timestamp in Unix nanoseconds (forensic;
	// excluded from the canonical comparison form).
	TimeNS int64 `json:"time_ns,omitempty"`
	// Session is the recording session id (only on session-start).
	Session string `json:"session,omitempty"`
	// DocID is the document the event is attributed to.
	DocID string `json:"doc,omitempty"`
	// Key is the document's instrumentation key.
	Key string `json:"key,omitempty"`
	// PID is the reader process involved.
	PID int `json:"pid,omitempty"`
	// Cause carries error text (fake-message validation failure).
	Cause string `json:"cause,omitempty"`

	Ctx      *Ctx      `json:"ctx,omitempty"`
	Hook     *Hook     `json:"hook,omitempty"`
	Feature  *Feature  `json:"feature,omitempty"`
	Confine  *Confine  `json:"confine,omitempty"`
	Alert    *Alert    `json:"alert,omitempty"`
	Triage   *Triage   `json:"triage,omitempty"`
	DeepScan *DeepScan `json:"deepscan,omitempty"`
	Verdict  *Verdict  `json:"verdict,omitempty"`
}

// Options configures a Writer.
type Options struct {
	// Session names the recording (default: "pdfshield"). Stamped on the
	// session-start header event.
	Session string
	// Obs receives the journal's own health counters
	// (obs.MetricJournalEvents / obs.MetricJournalErrors); nil-safe.
	Obs *obs.Registry
	// FlushEach flushes the buffered writer after every event. Costs a
	// syscall per event but makes the journal durable line-by-line (the
	// commands' -journal flag records this way).
	FlushEach bool
	// RecentEvents sizes the in-memory ring of the latest events kept for
	// live diagnostics (the stall watchdog attaches a wedged document's
	// recent journal context to its report via Recent). 0 means
	// DefaultRecentEvents; negative disables the ring.
	RecentEvents int
}

// DefaultRecentEvents is the default Recent ring size.
const DefaultRecentEvents = 512

// Writer appends events to a JSONL sink. All methods are safe for
// concurrent use and nil-safe, so optional journaling wires through the
// detector and pipeline without guards. Writes are fail-open: encoding or
// sink errors are counted and remembered, never surfaced to the append
// path — journaling must not be able to change a verdict.
type Writer struct {
	mu      sync.Mutex
	buf     *bufio.Writer
	sink    io.Writer
	seq     uint64
	dropped uint64
	err     error
	opts    Options
	closed  bool

	// recent is the fixed-size diagnostics ring (see Options.RecentEvents
	// and Recent); recNext is its insertion index.
	recent  []Event
	recNext int
	recFull bool
}

// NewWriter starts a journal on w and writes the session-start header.
func NewWriter(w io.Writer, opts Options) *Writer {
	if opts.Session == "" {
		opts.Session = "pdfshield"
	}
	if opts.RecentEvents == 0 {
		opts.RecentEvents = DefaultRecentEvents
	}
	jw := &Writer{buf: bufio.NewWriterSize(w, 64<<10), sink: w, opts: opts}
	if opts.RecentEvents > 0 {
		jw.recent = make([]Event, opts.RecentEvents)
	}
	// Preregister the health counters so a scrape (and the metric-drift
	// lint) sees the series before the first append resolves them.
	opts.Obs.CounterAdd(obs.MetricJournalEvents, 0)
	opts.Obs.CounterAdd(obs.MetricJournalErrors, 0)
	jw.Append(Event{T: TypeSessionStart, Session: opts.Session})
	return jw
}

// Create opens (truncating) a journal file. The caller owns Close.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	return NewWriter(f, opts), nil
}

// Append records one event, assigning its sequence number and timestamp.
// Nil-safe and fail-open: errors are counted (see Err) and the event is
// dropped, but Append never blocks detection or returns a failure.
func (w *Writer) Append(e Event) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.seq++
	e.Seq = w.seq
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	if len(w.recent) > 0 {
		// The diagnostics ring keeps the event even when the sink write
		// below fails — fail-open means the in-memory context survives a
		// broken disk.
		w.recent[w.recNext] = e
		w.recNext++
		if w.recNext == len(w.recent) {
			w.recNext = 0
			w.recFull = true
		}
	}
	err := w.writeLocked(e)
	if err != nil {
		w.dropped++
		if w.err == nil {
			w.err = err
		}
	}
	w.mu.Unlock()
	if err != nil {
		w.opts.Obs.Inc(obs.MetricJournalErrors)
	} else {
		w.opts.Obs.Inc(obs.MetricJournalEvents)
	}
}

func (w *Writer) writeLocked(e Event) error {
	if w.closed {
		return fmt.Errorf("journal: writer closed")
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	if _, err := w.buf.Write(data); err != nil {
		return err
	}
	if err := w.buf.WriteByte('\n'); err != nil {
		return err
	}
	if w.opts.FlushEach {
		return w.buf.Flush()
	}
	return nil
}

// Flush drains the buffer to the sink.
func (w *Writer) Flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	if err := w.buf.Flush(); err != nil {
		if w.err == nil {
			w.err = err
		}
		return err
	}
	return nil
}

// Sync flushes and, when the sink supports it (an *os.File), fsyncs.
func (w *Writer) Sync() error {
	if w == nil {
		return nil
	}
	if err := w.Flush(); err != nil {
		return err
	}
	type syncer interface{ Sync() error }
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.sink.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// Close flushes and closes the sink when it is a closer. Further appends
// are dropped (and counted).
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	flushErr := w.Flush()
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	if c, ok := w.sink.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return flushErr
}

// Session returns the recording's session name ("" on a nil writer) —
// the correlation id callers hand out so an external consumer can match
// a verdict back to this journal's events.
func (w *Writer) Session() string {
	if w == nil {
		return ""
	}
	return w.opts.Session
}

// Recent returns the latest retained events for one document (docID ""
// matches every event), newest-first, up to max (<= 0 = no bound). It
// reads the in-memory diagnostics ring, never the sink, so it is cheap
// enough for a watchdog to call while the system is wedged. Nil-safe.
func (w *Writer) Recent(docID string, max int) []Event {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.recNext
	if w.recFull {
		n = len(w.recent)
	}
	var out []Event
	for i := 0; i < n; i++ {
		idx := w.recNext - 1 - i
		if idx < 0 {
			idx += len(w.recent)
		}
		e := w.recent[idx]
		if docID != "" && e.DocID != docID {
			continue
		}
		out = append(out, e)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// Err returns the first write error encountered ("" contract of fail-open:
// detection never saw it, but forensics should know the record is partial).
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Dropped returns how many events were lost to sink errors.
func (w *Writer) Dropped() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropped
}

// Events returns how many events were appended successfully.
func (w *Writer) Events() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq - w.dropped
}

// maxLineBytes bounds one journal line on read (hostile or corrupt inputs
// must not balloon memory; a legitimate event is a few hundred bytes).
const maxLineBytes = 4 << 20

// Read decodes a JSONL journal stream. Blank lines are skipped; a
// malformed line fails with its line number. Sequence numbers must be
// strictly increasing (the append-only contract).
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	line := 0
	var lastSeq uint64
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		if e.Seq <= lastSeq {
			return nil, fmt.Errorf("journal: line %d: sequence %d not after %d (journal reordered or truncated-and-appended)", line, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	return out, nil
}

// ReadFile reads a journal file.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	defer func() { _ = f.Close() }()
	return Read(f)
}
