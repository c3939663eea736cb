package detect

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/sandbox"
	"pdfshield/internal/soapsrv"
	"pdfshield/internal/winos"
)

// Config configures the runtime detector.
type Config struct {
	// Registry maps instrumentation keys to documents (shared with the
	// front-end).
	Registry *instrument.Registry
	// OS is the fake OS confinement acts on.
	OS *winos.OS
	// Obs, when non-nil, receives alert / fake-message / per-feature
	// trigger counters.
	Obs *obs.Registry
	// Journal, when non-nil, receives the forensic event stream: every
	// context transition, hook event with its decision, feature trigger,
	// confinement action and alert. Appends happen under the detector's
	// state lock, so journal order is state-machine order — the contract
	// Replay depends on. Journal sink errors are fail-open (see
	// internal/journal) and never affect detection.
	Journal *journal.Writer
}

// Alert is raised when a document's malscore crosses the threshold or a
// fake message is received.
type Alert struct {
	DocID    string
	InstrKey string
	Malscore int
	Features Vector
	Reason   string
	// Cause is the validation error text behind a fake-message (mimicry)
	// alert ("" for malscore alerts), so the alert carries the same
	// diagnosis the journal and metrics record.
	Cause string
	// IsolatedFiles are paths quarantined by confinement.
	IsolatedFiles []string
	// TerminatedPIDs are sandboxed processes killed by confinement.
	TerminatedPIDs []int
	// Ops is the recorded suspicious-operation log.
	Ops []string
}

// DocState is the per-document runtime state (one active malscore per
// unknown open PDF, §III-E).
type DocState struct {
	InstrKey string
	DocID    string
	// PID is the reader process the document is open in.
	PID      int
	Features Vector
	// Armed reports that at least one JS-context operation was captured;
	// until then sensitive operations are ignored for this document.
	Armed bool
	// EnterMemMB is the process memory at the current JS-context entry.
	EnterMemMB float64
	// PeakMemMB is the peak observed while in JS context.
	PeakMemMB float64
	// InContext reports the document is currently executing Javascript.
	InContext bool
	// Alert is the alert this document raised (nil until one fires; it
	// latches until ForgetDoc drops the state).
	Alert *Alert
	// Ops logs recorded suspicious operations.
	Ops []string
	// DroppedFiles are files written while this document was active.
	DroppedFiles []string
	// SandboxPIDs are processes started (sandboxed) on this document's
	// behalf.
	SandboxPIDs []int
	// InjectedDLLs are DLL paths whose injection was rejected.
	InjectedDLLs []string
}

// processCreationWhitelist holds the benign spawns of §III-D (error
// reporting and reader-update helpers).
var processCreationWhitelist = []string{"werfault", "adobearm", "acrocef", "wermgr", "reader_sl"}

func whitelistedProcess(path string) bool {
	p := strings.ToLower(path)
	for _, w := range processCreationWhitelist {
		if strings.Contains(p, w) {
			return true
		}
	}
	return false
}

// Detector is the runtime detector: an in-process state machine fed one
// context notification (Notify) or hooked API call (Event) at a time.
type Detector struct {
	cfg       Config
	downloads *DownloadList
	sandbox   *sandbox.Sandbox

	mu   sync.Mutex
	docs map[string]*DocState // by instrumentation key
	// active maps a reader PID to the instrumentation key currently in
	// Javascript context in that process. The paper assumes one
	// single-threaded reader; to serve concurrent readers (batch mode) the
	// detector keys the active context per process.
	active map[int]string
	// lastMem is the most recent memory sample per reader PID.
	lastMem map[int]float64
	// alerts is the recent alert history, a ring of at most AlertHistory
	// entries. alertTotal counts every alert raised; alert number n (0,
	// 1, … in raise order) sits at index n%AlertHistory while retained.
	alerts     []Alert
	alertTotal int
}

// AlertHistory bounds the alert history Alerts and IsMalicious read: a
// long-lived detector keeps its most recent AlertHistory alerts. Verdicts
// never read it (they come from per-document state, see DocStateFor).
const AlertHistory = 256

// New creates a detector.
func New(cfg Config) (*Detector, error) {
	if cfg.Registry == nil {
		return nil, errors.New("detect: registry required")
	}
	if cfg.OS == nil {
		cfg.OS = winos.NewOS()
	}
	d := &Detector{
		cfg:       cfg,
		downloads: &DownloadList{entries: make(map[string]DownloadEntry)},
		sandbox:   sandbox.New(cfg.OS),
		docs:      make(map[string]*DocState),
		active:    make(map[int]string),
		lastMem:   make(map[int]float64),
	}
	// A reaped reader PID never reports again (PIDs are not reused), so
	// its memory sample goes with it.
	cfg.OS.OnReap(d.forgetProcess)
	return d, nil
}

// Sandbox exposes the confinement sandbox (tests and examples).
func (d *Detector) Sandbox() *sandbox.Sandbox { return d.sandbox }

// Downloads exposes the list of executables downloaded in JS context.
func (d *Detector) Downloads() *DownloadList { return d.downloads }

// Alerts returns the most recent raised alerts (at most AlertHistory),
// oldest first.
func (d *Detector) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	alerts := make([]Alert, 0, len(d.alerts))
	for n := d.alertTotal - len(d.alerts); n < d.alertTotal; n++ {
		alerts = append(alerts, d.alerts[n%AlertHistory])
	}
	return alerts
}

// recordAlertLocked appends a to the alert history, overwriting the
// oldest entry once the ring is full.
func (d *Detector) recordAlertLocked(a Alert) {
	if len(d.alerts) < AlertHistory {
		d.alerts = append(d.alerts, a)
	} else {
		d.alerts[d.alertTotal%AlertHistory] = a
	}
	d.alertTotal++
}

// forgetProcess drops the per-process memory sample of a reaped PID.
func (d *Detector) forgetProcess(pid int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.lastMem, pid)
}

// ProcessStates returns how many reader PIDs the detector keeps a memory
// sample for.
func (d *Detector) ProcessStates() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.lastMem)
}

// DocStateFor returns a copy of the state for an instrumentation key.
func (d *Detector) DocStateFor(instrKey string) (DocState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.docs[instrKey]
	if !ok {
		return DocState{}, false
	}
	return *st, true
}

// IsMalicious reports whether any alert in the recent history names the
// given document.
func (d *Detector) IsMalicious(docID string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range d.alerts {
		if a.DocID == docID {
			return true
		}
	}
	return false
}

// ForgetDoc drops the volatile per-document state (malscore is volatile:
// it no longer exists once the reader closes, §III-E).
func (d *Detector) ForgetDoc(instrKey string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journalForget(instrKey)
	delete(d.docs, instrKey)
	for pid, key := range d.active {
		if key == instrKey {
			delete(d.active, pid)
		}
	}
}

// ---- SOAP context notifications ----

// Notify feeds one context notification into the detector. In-process
// readers (soapsrv.Direct), a soapsrv.Server and Replay all deliver to
// this method; remote names the sender and is not used.
func (d *Detector) Notify(n soapsrv.Notify, remote string) error {
	d.mu.Lock()
	defer d.mu.Unlock()

	rec, err := d.cfg.Registry.Validate(n.Key)
	if err != nil {
		// Zero tolerance to fake messages: tag the active document as
		// malicious (PDF readers are single-threaded, so the active
		// document is the one responsible).
		d.fakeMessageLocked(n, err)
		return fmt.Errorf("fake message: %v", err)
	}
	k, _ := instrument.ParseKey(n.Key)
	st := d.docStateLocked(k.InstrKey, rec)
	st.PID = n.PID
	mem := d.lastMem[n.PID]
	d.journalCtx(n, st, rec.StaticVector, mem)

	switch n.Event {
	case soapsrv.EventEnter:
		d.active[n.PID] = k.InstrKey
		st.InContext = true
		st.EnterMemMB = mem
		st.PeakMemMB = mem
	case soapsrv.EventExit:
		if d.active[n.PID] == k.InstrKey {
			delete(d.active, n.PID)
		}
		st.InContext = false
		d.updateMemoryFeatureLocked(st, mem)
		d.evaluateLocked(st)
	}
	return nil
}

func (d *Detector) fakeMessageLocked(n soapsrv.Notify, cause error) {
	d.cfg.Obs.Inc(obs.MetricFakeMessages)
	// Prefer the active document in the sending process; otherwise, if the
	// claimed key is known, blame that document.
	st := d.activeDocLocked(n.PID)
	if st == nil {
		if k, err := instrument.ParseKey(n.Key); err == nil {
			if rec, ok := d.cfg.Registry.LookupKey(k.InstrKey); ok {
				st = d.docStateLocked(k.InstrKey, rec)
			}
		}
	}
	d.journalFake(n, st, cause)
	if st == nil {
		// No attributable document; record a detector-level alert.
		a := Alert{
			DocID:  "<unknown>",
			Reason: "fake-message: " + cause.Error(),
			Cause:  cause.Error(),
		}
		d.recordAlertLocked(a)
		d.journalAlert(nil, a)
		return
	}
	st.Ops = append(st.Ops, "fake-message: "+cause.Error())
	d.raiseAlertLocked(st, "fake-message", cause.Error())
}

// countFeatureTrigger records a feature's first trigger on a document.
func (d *Detector) countFeatureTrigger(feature int) {
	d.cfg.Obs.Inc(obs.FeatureSeries(FeatureNames[feature]))
}

func (d *Detector) docStateLocked(instrKey string, rec instrument.DocRecord) *DocState {
	st, ok := d.docs[instrKey]
	if !ok {
		st = &DocState{InstrKey: instrKey, DocID: rec.DocID}
		for i, b := range rec.StaticVector {
			st.Features[i] = b
		}
		d.docs[instrKey] = st
	}
	return st
}

// ---- hook events ----

// Event feeds one hooked API call into the detector and returns its
// confinement decision. In-process readers (hook.DirectSink), a
// hook.Server and Replay all deliver to this method.
func (d *Detector) Event(ev hook.Event) hook.Decision {
	d.mu.Lock()
	defer d.mu.Unlock()

	d.lastMem[ev.PID] = ev.MemMB
	active := d.activeDocLocked(ev.PID)
	if active != nil && active.InContext {
		if ev.MemMB > active.PeakMemMB {
			active.PeakMemMB = ev.MemMB
		}
	}
	dec := d.decideLocked(ev, active)
	d.journalHook(ev, dec, active)
	return dec
}

// decideLocked dispatches one event to its behaviour handler and returns
// the confinement decision (split from Event so the journal can
// record the event together with its decision).
func (d *Detector) decideLocked(ev hook.Event, active *DocState) hook.Decision {
	switch ev.Behavior() {
	case hook.BehaviorMemorySample:
		if active != nil && active.InContext {
			d.updateMemoryFeatureLocked(active, ev.MemMB)
			d.evaluateLocked(active)
		}
		return hook.Decision{Action: hook.ActionAllow}
	case hook.BehaviorMalwareDropping:
		return d.onDropLocked(ev, active)
	case hook.BehaviorNetworkAccess:
		return d.onNetworkLocked(ev, active)
	case hook.BehaviorMappedMemorySearch:
		return d.onMemSearchLocked(ev, active)
	case hook.BehaviorProcessCreation:
		return d.onProcessLocked(ev, active)
	case hook.BehaviorDLLInjection:
		return d.onInjectLocked(ev, active)
	default:
		return hook.Decision{Action: hook.ActionAllow}
	}
}

// activeDocLocked resolves the document currently in Javascript context for
// a reader process (nil when none is).
func (d *Detector) activeDocLocked(pid int) *DocState {
	if key, ok := d.active[pid]; ok {
		return d.docs[key]
	}
	return nil
}

func (d *Detector) updateMemoryFeatureLocked(st *DocState, curMemMB float64) {
	if curMemMB > st.PeakMemMB {
		st.PeakMemMB = curMemMB
	}
	if st.PeakMemMB-st.EnterMemMB >= MemoryThresholdMB {
		if st.Features[FMemory] == 0 {
			op := fmt.Sprintf("injs-memory: +%.0f MB", st.PeakMemMB-st.EnterMemMB)
			st.Ops = append(st.Ops, op)
			d.countFeatureTrigger(FMemory)
			d.journalFeature(st, FMemory, op)
		}
		st.Features[FMemory] = 1
		st.Armed = true
	}
}

// onDropLocked: Table III — before alert, the hook calls the original API
// (allow); the detector maintains the downloaded-executables list; on
// alert, isolate.
func (d *Detector) onDropLocked(ev hook.Event, active *DocState) hook.Decision {
	path := ev.Arg(0)
	if strings.HasPrefix(ev.API, "URLDownloadTo") {
		path = ev.Arg(1)
	}
	if active != nil && active.InContext {
		d.markLocked(active, FDropping, "injs-drop: "+path)
		active.DroppedFiles = append(active.DroppedFiles, path)
		if winos.IsExecutablePath(path) {
			d.downloads.Add(DownloadEntry{Path: path, DocID: active.DocID, Key: active.InstrKey})
		}
		if active.Alert != nil {
			d.journalConfine(active, journal.ConfineDropBlocked, path, 0)
			return hook.Decision{Action: hook.ActionReject, Note: "post-alert: drop blocked"}
		}
		d.evaluateLocked(active)
		if active.Alert != nil {
			// This very drop tipped the malscore; block it so the file
			// never lands (earlier drops are quarantined by the alert).
			d.journalConfine(active, journal.ConfineDropBlocked, path, 0)
			return hook.Decision{Action: hook.ActionReject, Note: "alert raised: drop blocked"}
		}
		return hook.Decision{Action: hook.ActionAllow, Note: "drop tracked"}
	}
	// Out-of-JS file writes are ordinary reader behaviour (caches, prefs)
	// and are not a monitored out-JS feature (Table II).
	return hook.Decision{Action: hook.ActionAllow}
}

// isOwnEndpoint whitelists communications between the runtime detector and
// the context monitoring code (§III-D): the endpoint every monitor reports
// to.
func isOwnEndpoint(hostport string) bool {
	return hostport == instrument.DefaultEndpointAddr
}

func (d *Detector) onNetworkLocked(ev hook.Event, active *DocState) hook.Decision {
	host := ev.Arg(0)
	if isOwnEndpoint(host) {
		return hook.Decision{Action: hook.ActionAllow, Note: "detector channel whitelisted"}
	}
	if active != nil && active.InContext {
		d.markLocked(active, FNetwork, fmt.Sprintf("injs-network: %s(%s)", ev.API, host))
		if active.Alert != nil {
			return hook.Decision{Action: hook.ActionReject, Note: "post-alert: network blocked"}
		}
		d.evaluateLocked(active)
	}
	// Network access is monitored but not confined (Table III lists only
	// dropping, process creation and DLL injection).
	return hook.Decision{Action: hook.ActionAllow}
}

func (d *Detector) onMemSearchLocked(ev hook.Event, active *DocState) hook.Decision {
	if active != nil && active.InContext {
		d.markLocked(active, FMemSearch, "injs-mem-search: "+ev.API)
		d.evaluateLocked(active)
	}
	return hook.Decision{Action: hook.ActionAllow}
}

func (d *Detector) onProcessLocked(ev hook.Event, active *DocState) hook.Decision {
	path := ev.Arg(0)
	if whitelistedProcess(path) {
		return hook.Decision{Action: hook.ActionAllow, Note: "whitelisted helper"}
	}
	inJS := active != nil && active.InContext
	if inJS {
		d.markLocked(active, FProcCreate, "injs-process: "+path)
		// Multi-PDF cooperation: executing a file another document
		// downloaded in JS context links both documents (§III-E).
		if entry, ok := d.downloads.Lookup(path); ok && entry.Key != active.InstrKey {
			d.markLocked(active, FDropping, "injs-drop (imputed via downloads list): "+path)
			if other, exists := d.docs[entry.Key]; exists {
				d.markLocked(other, FProcCreate, "injs-process (imputed: its download executed): "+path)
				d.evaluateLocked(other)
			}
		}
	} else {
		// Out-JS process creation counts for every armed document open in
		// the same reader process.
		for _, st := range d.docs {
			if st.Armed && st.PID == ev.PID {
				d.markOutJSLocked(st, FOutJSProc, "outjs-process: "+path)
				d.evaluateLocked(st)
			}
		}
	}
	// Table III: the hook rejects the original call; the detector runs the
	// target inside the sandbox (pre-alert).
	owner := active
	if owner == nil {
		owner = d.someArmedDocLocked(ev.PID)
	}
	if owner != nil && owner.Alert != nil {
		d.journalConfine(owner, journal.ConfineProcessBlocked, path, 0)
		return hook.Decision{Action: hook.ActionReject, Note: "post-alert: process creation blocked"}
	}
	pid := d.sandbox.Run(path, ev.PID)
	d.journalConfine(owner, journal.ConfineSandboxed, path, pid)
	if owner != nil {
		owner.SandboxPIDs = append(owner.SandboxPIDs, pid)
		d.evaluateLocked(owner)
	}
	return hook.Decision{Action: hook.ActionSandbox, Note: fmt.Sprintf("running in sandbox as pid %d", pid)}
}

func (d *Detector) someArmedDocLocked(pid int) *DocState {
	for _, st := range d.docs {
		if st.Armed && st.PID == pid {
			return st
		}
	}
	return nil
}

func (d *Detector) onInjectLocked(ev hook.Event, active *DocState) hook.Decision {
	dll := ev.Arg(0)
	if active != nil && active.InContext {
		d.markLocked(active, FDLLInject, "injs-dll-inject: "+dll)
		active.InjectedDLLs = append(active.InjectedDLLs, dll)
		d.evaluateLocked(active)
	} else {
		for _, st := range d.docs {
			if st.Armed && st.PID == ev.PID {
				d.markOutJSLocked(st, FOutJSInject, "outjs-dll-inject: "+dll)
				st.InjectedDLLs = append(st.InjectedDLLs, dll)
				d.evaluateLocked(st)
			}
		}
	}
	// Table III: always reject; isolate the DLL.
	d.journalConfine(active, journal.ConfineInjectionRejected, dll, 0)
	if d.cfg.OS.FileExists(dll) {
		d.cfg.OS.Quarantine(dll, "dll-injection rejected")
	}
	return hook.Decision{Action: hook.ActionReject, Note: "dll injection always rejected"}
}

// markLocked sets a JS-context feature and arms the document.
func (d *Detector) markLocked(st *DocState, feature int, op string) {
	if st.Features[feature] == 0 {
		st.Ops = append(st.Ops, op)
		d.countFeatureTrigger(feature)
		d.journalFeature(st, feature, op)
	}
	st.Features[feature] = 1
	if feature >= FMemory {
		st.Armed = true
	}
}

// markOutJSLocked sets an out-of-JS feature (only on armed documents).
func (d *Detector) markOutJSLocked(st *DocState, feature int, op string) {
	if st.Features[feature] == 0 {
		st.Ops = append(st.Ops, op)
		d.countFeatureTrigger(feature)
		d.journalFeature(st, feature, op)
	}
	st.Features[feature] = 1
}

// evaluateLocked recomputes the malscore and raises an alert when it
// crosses the threshold.
func (d *Detector) evaluateLocked(st *DocState) {
	if st.Alert != nil || !st.Armed {
		return
	}
	score := st.Features.Malscore(DefaultW1, DefaultW2)
	if score >= DefaultThreshold {
		d.raiseAlertLocked(st, "malscore", "")
	}
}

// raiseAlertLocked executes the on-alert confinement of Table III and
// records the alert (cause carries the fake-message validation error, ""
// for malscore alerts).
func (d *Detector) raiseAlertLocked(st *DocState, reason, cause string) {
	if st.Alert != nil {
		return
	}
	d.cfg.Obs.Inc(obs.MetricAlerts)

	alert := &Alert{
		DocID:    st.DocID,
		InstrKey: st.InstrKey,
		Malscore: st.Features.Malscore(DefaultW1, DefaultW2),
		Features: st.Features,
		Reason:   reason,
		Cause:    cause,
		Ops:      append([]string(nil), st.Ops...),
	}
	st.Alert = alert
	// Isolate dropped files.
	for _, f := range st.DroppedFiles {
		if d.cfg.OS.Quarantine(f, "alert: dropped by "+st.DocID) {
			alert.IsolatedFiles = append(alert.IsolatedFiles, f)
			d.journalConfine(st, journal.ConfineIsolated, f, 0)
		}
	}
	// Terminate sandboxed processes and isolate their executables.
	for _, pid := range st.SandboxPIDs {
		if path, ok := d.sandbox.PathOf(pid); ok {
			if d.sandbox.Terminate(pid) {
				alert.TerminatedPIDs = append(alert.TerminatedPIDs, pid)
				d.journalConfine(st, journal.ConfineTerminated, path, pid)
			}
			if d.cfg.OS.Quarantine(path, "alert: executed by "+st.DocID) {
				alert.IsolatedFiles = append(alert.IsolatedFiles, path)
				d.journalConfine(st, journal.ConfineIsolated, path, 0)
			}
		}
	}
	// Isolate injected DLLs.
	for _, dll := range st.InjectedDLLs {
		if d.cfg.OS.Quarantine(dll, "alert: injected by "+st.DocID) {
			alert.IsolatedFiles = append(alert.IsolatedFiles, dll)
			d.journalConfine(st, journal.ConfineIsolated, dll, 0)
		}
	}
	d.recordAlertLocked(*alert)
	d.journalAlert(st, *alert)
}
