package reader

import (
	"errors"
	"fmt"
	"strings"

	"pdfshield/internal/hook"
	"pdfshield/internal/js"
	"pdfshield/internal/pdf"
	"pdfshield/internal/soapsrv"
	"pdfshield/internal/winos"
)

// Config configures a simulated reader process.
type Config struct {
	// ViewerVersion models the installed Acrobat version (default 9.0).
	ViewerVersion float64
	// Sink receives hooked API calls (default hook.AllowAllSink — an
	// unprotected machine).
	Sink hook.Sink
	// OS is the shared fake OS (default: fresh).
	OS *winos.OS
	// Notifier delivers the context notifications of SOAP.request calls
	// whose cURL path ends in /ctx: the detector's in-process entry point
	// (soapsrv.NewDirect) when reader and detector share a process.
	Notifier soapsrv.Notifier
	// DetectorSOAP is a standalone detector's SOAP endpoint, used when
	// Notifier is nil. Empty on both means no detector is installed.
	DetectorSOAP string
	// StepLimit and MaxHeap bound each document's scripts (0 = js
	// defaults).
	StepLimit int64
	MaxHeap   int64
	// Units is the compiled-unit cache shared by every document interpreter
	// this process creates (nil = js.DefaultUnits). The cache outlives
	// Reset, so recycled sessions keep their precompiled monitoring code.
	Units *js.UnitCache
}

// Memory model constants, tuned so the shapes of Figures 7 and 8 hold:
// tens of MB per open document growing linearly with file size, and a
// process baseline in the tens of MB.
const (
	baseMemMB        = 25.0
	perDocFixedMB    = 1.5
	perDocPerMB      = 3.2
	perDocCapMB      = 120.0
	compactFactor    = 0.45
	compactAtMB      = 800.0
	readerExeName    = `C:\Program Files\Adobe\Reader\AcroRd32.exe`
	helperExeName    = `C:\Program Files\Common Files\Adobe\ARM\AdobeARM.exe`
	maxSprayBlocks   = 8
	eggHuntProbes    = 8
	maxDynamicRounds = 16
	// memSampleStepBytes is the allocation growth between hook-layer
	// memory samples.
	memSampleStepBytes = 32 << 20
)

// Process is one simulated single-threaded PDF reader process.
type Process struct {
	cfg  Config
	os   *winos.OS
	sink hook.Sink
	// detector receives context notifications (nil = no detector).
	detector soapsrv.Notifier

	// PID is the process id in the fake OS.
	PID int

	docsMemMB   float64
	jsHeapBytes int64
	// lastSampledHeap tracks the allocation level at the last emitted
	// memory sample; the hook layer samples PROCESS_MEMORY_COUNTERS_EX
	// whenever script allocations grow by another memSampleStepBytes, so
	// a spray is visible to the detector even if the script never calls a
	// hooked API before crashing.
	lastSampledHeap int64
	compacted       bool
	crashed         bool

	docs []*OpenDoc
}

// OpenOptions tunes one document open.
type OpenOptions struct {
	// OptimizeHint marks documents that trigger the reader's memory
	// optimization observed for one document in Figure 8.
	OptimizeHint bool
	// SpawnHelper emits the benign out-of-JS AdobeARM process creation
	// that real readers produce occasionally (false-positive pressure).
	SpawnHelper bool
	// ForceExec, when non-nil, runs every script under JSForce-style
	// forced execution with the given bounds (the deep-scan tier): both
	// arms of each if/ternary are explored, forced-path crashes are
	// recovered, and runtime features union across paths. Distinct
	// script sources are explored once per open.
	ForceExec *js.ForceConfig
}

// OpenDoc is one open document within the process.
type OpenDoc struct {
	ID     string
	Doc    *pdf.Document
	Chains pdf.ChainSet

	interp      *js.Interp
	proc        *Process
	sprayBlocks []js.Value
	heapBytes   int64
	memMB       float64

	timers   []timerEntry
	dynamic  []string
	eggData  []byte
	exploits []ExploitEvent
	jsErrs   []string
	jsRuns   int

	// Deep-scan state: the forced-execution bounds for this open (nil on
	// standard opens), the set of already-explored script sources, and
	// per-open path accounting.
	force         *js.ForceConfig
	deepSeen      map[string]bool
	deepPaths     int
	deepCrashed   int
	deepExhausted int
}

type timerEntry struct {
	code string
	ms   float64
}

// OpenResult summarizes one document open.
type OpenResult struct {
	DocID string
	// Crashed reports the process crashed while handling this document.
	Crashed bool
	// JSRuns counts separate script executions.
	JSRuns int
	// ScriptErrors holds non-fatal script failures.
	ScriptErrors []string
	// Exploits lists exploit attempts and their outcomes.
	Exploits []ExploitEvent
	// MemAfterMB is process memory after the open sequence.
	MemAfterMB float64
	// JSHeapMB is this document's cumulative script allocation in MB.
	JSHeapMB float64
	// DeepPaths counts forced-execution paths explored across all of the
	// document's scripts (0 on standard opens; ≥1 per script on deep
	// opens — the natural path counts).
	DeepPaths int
	// DeepCrashedPaths counts forced paths abandoned on a recovered
	// emulated crash.
	DeepCrashedPaths int
	// DeepBudgetExhausted counts scripts whose exploration was cut short
	// by a path, step, or decision budget.
	DeepBudgetExhausted int
}

// NewProcess starts a reader process in the fake OS.
func NewProcess(cfg Config) *Process {
	if cfg.ViewerVersion == 0 {
		cfg.ViewerVersion = 9.0
	}
	if cfg.Sink == nil {
		cfg.Sink = hook.AllowAllSink{}
	}
	if cfg.OS == nil {
		cfg.OS = winos.NewOS()
	}
	p := &Process{cfg: cfg, os: cfg.OS, sink: cfg.Sink, detector: cfg.Notifier}
	if p.detector == nil && cfg.DetectorSOAP != "" {
		p.detector = soapsrv.NewClient(cfg.DetectorSOAP)
	}
	p.PID = p.os.Spawn(readerExeName, 0, false)
	return p
}

// OS exposes the fake OS (examples and tests inspect effects).
func (p *Process) OS() *winos.OS { return p.os }

// Crashed reports whether the process crashed.
func (p *Process) Crashed() bool { return p.crashed }

// MemMB returns the current PROCESS_MEMORY_COUNTERS_EX-style private usage.
func (p *Process) MemMB() float64 {
	return baseMemMB + p.docsMemMB + float64(p.jsHeapBytes)/(1<<20)
}

// Close terminates the process in the fake OS.
func (p *Process) Close() {
	p.os.Terminate(p.PID)
}

// Reset recycles the process for the next document: the old process is
// terminated in the fake OS and a fresh one spawned, discarding all
// per-process state (open documents, script heap, crash flag). Callers that
// process documents in bulk use this to keep the surrounding session — in
// particular the hook sink to the detector — alive, while each
// document still observes the behaviour of a freshly started reader.
func (p *Process) Reset() {
	p.os.Terminate(p.PID)
	p.PID = p.os.Spawn(readerExeName, 0, false)
	p.docsMemMB = 0
	p.jsHeapBytes = 0
	p.lastSampledHeap = 0
	p.compacted = false
	p.crashed = false
	p.docs = nil
}

// apiCall reports a hooked API to the sink and returns the decision. When
// no detector is reachable the call proceeds (fail-open, like a hook DLL
// whose detector died).
func (p *Process) apiCall(name string, args ...string) hook.Decision {
	dec, err := p.sink.OnAPICall(hook.Event{PID: p.PID, API: name, Args: args, MemMB: p.MemMB()})
	if err != nil {
		return hook.Decision{Action: hook.ActionAllow, Note: "sink unreachable"}
	}
	return dec
}

// ---- hooked syscall wrappers ----

func (p *Process) sysCreateFile(path string, data []byte) bool {
	dec := p.apiCall("NtCreateFile", path)
	if dec.Action != hook.ActionAllow {
		return false
	}
	p.os.WriteFile(path, data)
	return true
}

func (p *Process) sysDownloadToFile(url, path string, data []byte) bool {
	host := hostOf(url)
	if p.sysConnect(host) {
		p.os.RecordConnection(host)
	}
	dec := p.apiCall("URLDownloadToFileA", url, path)
	if dec.Action != hook.ActionAllow {
		return false
	}
	p.os.WriteFile(path, data)
	return true
}

func (p *Process) sysConnect(hostport string) bool {
	dec := p.apiCall("connect", hostport)
	if dec.Action != hook.ActionAllow {
		return false
	}
	p.os.RecordConnection(hostport)
	return true
}

func (p *Process) sysListen(port string) bool {
	dec := p.apiCall("listen", port)
	if dec.Action != hook.ActionAllow {
		return false
	}
	p.os.RecordListen(atoiSafe(port))
	return true
}

func (p *Process) sysCreateProcess(path string) bool {
	dec := p.apiCall("NtCreateProcess", path)
	if dec.Action != hook.ActionAllow {
		// ActionSandbox: the detector launches the target inside the
		// sandbox itself (Table III); nothing happens in this process.
		return false
	}
	p.os.Spawn(path, p.PID, false)
	return true
}

func (p *Process) sysInjectDLL(dll string) bool {
	dec := p.apiCall("CreateRemoteThread", dll)
	if dec.Action != hook.ActionAllow {
		return false
	}
	p.os.RecordInjection(dll)
	return true
}

// emitMemSample reports a synthetic memory reading at JS context
// boundaries (the hook DLL reads PROCESS_MEMORY_COUNTERS_EX there).
func (p *Process) emitMemSample() {
	p.apiCall("ctx.mem")
}

func hostOf(url string) string {
	u := url
	if idx := strings.Index(u, "://"); idx >= 0 {
		u = u[idx+3:]
	}
	if idx := strings.IndexByte(u, '/'); idx >= 0 {
		u = u[:idx]
	}
	if !strings.Contains(u, ":") {
		u += ":80"
	}
	return u
}

func atoiSafe(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return n
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

// ---- document opening ----

// Open parses and renders a document: triggers its Javascript, runs timers
// and dynamically added scripts, then renders embedded content (where the
// out-of-JS-context exploits live).
func (p *Process) Open(id string, raw []byte, opts OpenOptions) (*OpenResult, error) {
	if p.crashed {
		return nil, fmt.Errorf("open %s: process has crashed", id)
	}
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", id, err)
	}
	if doc.IsEncrypted() {
		// The reader can display owner-password documents (empty user
		// password); decrypt for rendering.
		if err := pdf.RemoveOwnerPassword(doc); err != nil {
			return nil, fmt.Errorf("open %s: %w", id, err)
		}
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", id, err)
	}

	od := &OpenDoc{ID: id, Doc: doc, Chains: chains, proc: p}
	od.memMB = perDocFixedMB + minf(float64(len(raw))/(1<<20)*perDocPerMB, perDocCapMB)
	p.docsMemMB += od.memMB
	if opts.OptimizeHint && !p.compacted && p.docsMemMB > compactAtMB {
		// The memory-optimization drop one document exhibits in Figure 8.
		p.docsMemMB *= compactFactor
		p.compacted = true
	}
	p.docs = append(p.docs, od)

	od.force = opts.ForceExec
	od.interp = p.newDocInterp(od)
	od.eggData = extractEgg(doc)

	p.runDocScripts(od)
	if !p.crashed {
		p.renderEmbedded(od)
	}
	if !p.crashed && opts.SpawnHelper {
		p.sysCreateProcess(helperExeName)
	}

	res := &OpenResult{
		DocID:               id,
		Crashed:             p.crashed,
		JSRuns:              od.jsRuns,
		ScriptErrors:        od.jsErrs,
		Exploits:            od.exploits,
		MemAfterMB:          p.MemMB(),
		JSHeapMB:            float64(od.heapBytes) / (1 << 20),
		DeepPaths:           od.deepPaths,
		DeepCrashedPaths:    od.deepCrashed,
		DeepBudgetExhausted: od.deepExhausted,
	}
	return res, nil
}

// CloseDoc releases a document's memory (reader keeps running).
func (p *Process) CloseDoc(id string) {
	for i, od := range p.docs {
		if od.ID == id {
			p.docsMemMB -= od.memMB
			p.jsHeapBytes -= od.heapBytes
			p.docs = append(p.docs[:i], p.docs[i+1:]...)
			return
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// runDocScripts executes the document's triggered scripts in holder order,
// then timers, then dynamically added scripts, looping until the dynamic
// queue drains (staged attacks add stages from within stages).
func (p *Process) runDocScripts(od *OpenDoc) {
	sequential := make(map[int]bool)
	for _, c := range od.Chains.Chains {
		for _, n := range c.NextNums {
			sequential[n] = true
		}
	}
	chainByHolder := make(map[int]*pdf.JSChain)
	for i := range od.Chains.Chains {
		chainByHolder[od.Chains.Chains[i].Holder] = &od.Chains.Chains[i]
	}
	for i := range od.Chains.Chains {
		chain := &od.Chains.Chains[i]
		if !chain.Triggered || sequential[chain.Holder] {
			continue
		}
		p.execScript(od, chain.Source)
		if p.crashed {
			return
		}
		for _, next := range chain.NextNums {
			if nc, ok := chainByHolder[next]; ok {
				p.execScript(od, nc.Source)
				if p.crashed {
					return
				}
			}
		}
	}
	for round := 0; round < maxDynamicRounds; round++ {
		timers := od.timers
		dynamic := od.dynamic
		od.timers = nil
		od.dynamic = nil
		if len(timers) == 0 && len(dynamic) == 0 {
			return
		}
		for _, tm := range timers {
			p.execScript(od, tm.code)
			if p.crashed {
				return
			}
		}
		for _, code := range dynamic {
			p.execScript(od, code)
			if p.crashed {
				return
			}
		}
	}
}

// execScript runs one script body in the document's interpreter.
func (p *Process) execScript(od *OpenDoc, source string) {
	if strings.TrimSpace(source) == "" {
		return
	}
	if od.force != nil {
		p.execScriptForced(od, source)
		return
	}
	od.jsRuns++
	_, err := od.interp.Run(source)
	if err != nil {
		if fe, ok := errAsFatal(err); ok {
			p.crashed = true
			od.jsErrs = append(od.jsErrs, "process crash: "+fe.Error())
			return
		}
		od.jsErrs = append(od.jsErrs, err.Error())
	}
}

// execScriptForced is the deep-scan variant of execScript: the script is
// re-executed under forced branch decisions so gated payloads run too.
// Distinct sources are explored once per open (forced paths re-register
// timers and dynamic scripts on every path, so without dedup the dynamic
// rounds would multiply). Error and crash semantics follow the natural
// path only — a crash on a forced path is an emulated process death the
// explorer recovers from, recorded in the deep counters and observable
// to the detector through the hooked APIs the path touched before dying.
func (p *Process) execScriptForced(od *OpenDoc, source string) {
	if od.deepSeen == nil {
		od.deepSeen = make(map[string]bool)
	}
	if od.deepSeen[source] {
		return
	}
	od.deepSeen[source] = true
	od.jsRuns++
	crashedBefore := p.crashed
	res := od.interp.ExploreForced(*od.force, func() error {
		_, err := od.interp.Run(source)
		return err
	})
	od.deepPaths += res.Paths
	od.deepCrashed += res.CrashedPaths
	if res.Exhausted() {
		od.deepExhausted++
	}
	naturalFatal := false
	if err := res.NaturalErr; err != nil {
		if fe, ok := errAsFatal(err); ok {
			naturalFatal = true
			od.jsErrs = append(od.jsErrs, "process crash: "+fe.Error())
		} else {
			od.jsErrs = append(od.jsErrs, err.Error())
		}
	}
	if naturalFatal {
		p.crashed = true
	} else {
		// vulnCall flags the process crashed before its FatalError unwinds;
		// when only forced paths died, the natural open survived.
		p.crashed = crashedBefore
	}
}

func errAsFatal(err error) (*js.FatalError, bool) {
	var fe *js.FatalError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// renderEmbedded processes embedded Flash/font content; malformed content
// (carrying a payload program) triggers the out-of-JS-context exploits.
func (p *Process) renderEmbedded(od *OpenDoc) {
	for _, num := range od.Doc.Numbers() {
		obj, _ := od.Doc.Get(num)
		stream, ok := obj.Object.(*pdf.Stream)
		if !ok {
			continue
		}
		subtype, _ := stream.Dict.Get("Subtype").(pdf.Name)
		var cve string
		switch subtype {
		case "Flash":
			cve = CVE20103654
		case "TrueType", "CIDFontType0C", "Type1C":
			cve = CVE20102883
		case "XFA", "JBIG2":
			cve = CVE20130640
		default:
			continue
		}
		data, _, err := pdf.DecodeChain(stream)
		if err != nil {
			continue
		}
		ops, hasPayload := DecodePayload(string(data))
		if !hasPayload {
			continue // well-formed embedded content
		}
		p.attemptExploit(od, cve, ops, false)
		if p.crashed {
			return
		}
	}
}

// attemptExploit models the hijack: version gate, spray coverage check,
// then shellcode execution or crash.
func (p *Process) attemptExploit(od *OpenDoc, cve string, payloadFromContent []PayloadOp, inJS bool) ExploitStage {
	spec, ok := vulnDB[cve]
	if !ok {
		return StageNotVulnerable
	}
	if !spec.Affects(p.cfg.ViewerVersion) {
		od.exploits = append(od.exploits, ExploitEvent{CVE: cve, Stage: StageNotVulnerable, InJS: inJS})
		return StageNotVulnerable
	}
	// Coverage: allocations fill the address space from heapBase upward;
	// the hijack lands at spec.Target.
	heapTop := uint64(heapBase) + uint64(p.jsHeapBytes)
	if heapTop <= spec.Target {
		od.exploits = append(od.exploits, ExploitEvent{CVE: cve, Stage: StageCrash, InJS: inJS})
		p.crashed = true
		return StageCrash
	}
	ops := payloadFromContent
	if ops == nil {
		ops = od.findSprayPayload()
	}
	if ops == nil {
		// Landed in spray but no decodable payload: garbage execution.
		od.exploits = append(od.exploits, ExploitEvent{CVE: cve, Stage: StageCrash, InJS: inJS})
		p.crashed = true
		return StageCrash
	}
	od.exploits = append(od.exploits, ExploitEvent{CVE: cve, Stage: StageShellcode, InJS: inJS, Payload: ops})
	p.runPayload(od, ops)
	return StageShellcode
}

// findSprayPayload scans recently sprayed blocks for the payload program.
// It is the only reader of their bytes, so at most maxSprayBlocks blocks
// are ever flattened, and only once an exploit lands.
func (od *OpenDoc) findSprayPayload() []PayloadOp {
	for i := len(od.sprayBlocks) - 1; i >= 0; i-- {
		if ops, ok := DecodePayload(od.sprayBlocks[i].Str()); ok {
			return ops
		}
	}
	return nil
}

// runPayload executes a shellcode op program with system-level effects.
func (p *Process) runPayload(od *OpenDoc, ops []PayloadOp) {
	for _, op := range ops {
		switch op.Kind {
		case OpDrop:
			p.sysCreateFile(argOr(op.Args, 0, `C:\tmp\dropped.exe`), fakeExecutable(od.ID))
		case OpDownload:
			url := argOr(op.Args, 0, "http://mal.example.com/payload.exe")
			path := argOr(op.Args, 1, `C:\tmp\downloaded.exe`)
			p.sysDownloadToFile(url, path, fakeExecutable(od.ID))
		case OpExec:
			p.sysCreateProcess(argOr(op.Args, 0, `C:\tmp\dropped.exe`))
		case OpConnect:
			p.sysConnect(argOr(op.Args, 0, "c2.example.com:443"))
		case OpListen:
			p.sysListen(argOr(op.Args, 0, "4444"))
		case OpEggHunt:
			p.runEggHunt(od, argOr(op.Args, 0, `C:\tmp\egg.exe`))
		case OpInject:
			p.sysInjectDLL(argOr(op.Args, 0, `C:\tmp\evil.dll`))
		}
	}
}

// runEggHunt emits the memory-search syscall pattern of §III-D, then drops
// and runs the egg embedded in the document.
func (p *Process) runEggHunt(od *OpenDoc, dropPath string) {
	searchAPIs := []string{"NtAccessCheckAndAuditAlarm", "IsBadReadPtr", "NtDisplayString", "NtAddAtom"}
	for i := 0; i < eggHuntProbes; i++ {
		p.apiCall(searchAPIs[i%len(searchAPIs)], fmt.Sprintf("0x%08x", heapBase+i*0x100000))
	}
	egg := od.eggData
	if egg == nil {
		egg = fakeExecutable(od.ID)
	}
	p.sysCreateFile(dropPath, egg)
	p.sysCreateProcess(dropPath)
}

func argOr(args []string, i int, def string) string {
	if i < len(args) && args[i] != "" {
		return args[i]
	}
	return def
}

// fakeExecutable synthesizes MZ-prefixed bytes for dropped malware.
func fakeExecutable(seed string) []byte {
	return append([]byte("MZ\x90\x00pdfshield-sim:"), []byte(seed)...)
}

// extractEgg finds an embedded egg (an /EmbeddedFile stream whose data
// starts with the egg tag) used by egg-hunt samples.
func extractEgg(doc *pdf.Document) []byte {
	for _, num := range doc.Numbers() {
		obj, _ := doc.Get(num)
		stream, ok := obj.Object.(*pdf.Stream)
		if !ok {
			continue
		}
		if t, _ := stream.Dict.Get("Type").(pdf.Name); t != "EmbeddedFile" {
			continue
		}
		data, _, err := pdf.DecodeChain(stream)
		if err != nil {
			continue
		}
		if strings.HasPrefix(string(data), "EGG!") {
			return data[4:]
		}
	}
	return nil
}
