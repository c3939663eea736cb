package detect

import (
	"fmt"
	"testing"

	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/soapsrv"
	"pdfshield/internal/winos"
)

func TestMalscoreEquation(t *testing.T) {
	tests := []struct {
		name string
		set  []int
		want int
	}{
		{"empty", nil, 0},
		{"one static", []int{FRatio}, 1},
		{"all static", []int{FRatio, FHeaderObf, FHexCode, FEmptyObjects, FEncodingLevels}, 5},
		{"one injs", []int{FMemory}, 9},
		{"one injs one static (criterion minimum)", []int{FMemory, FRatio}, 10},
		{"two injs", []int{FDropping, FProcCreate}, 18},
		{"outjs only", []int{FOutJSProc, FOutJSInject}, 2},
		{"everything", []int{FRatio, FHeaderObf, FHexCode, FEmptyObjects, FEncodingLevels, FOutJSProc, FOutJSInject, FMemory, FNetwork, FMemSearch, FDropping, FProcCreate, FDLLInject}, 7 + 54},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var v Vector
			for _, i := range tt.set {
				v[i] = 1
			}
			if got := v.Malscore(DefaultW1, DefaultW2); got != tt.want {
				t.Errorf("malscore = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDetectionCriterion(t *testing.T) {
	// Malicious iff >= 1 JS-context feature AND >= 1 other feature (or a
	// second JS-context feature).
	var onlyInJS Vector
	onlyInJS[FMemory] = 1
	if onlyInJS.Malscore(DefaultW1, DefaultW2) >= DefaultThreshold {
		t.Error("single in-JS feature alone must stay below threshold")
	}
	var onlyStatic Vector
	for i := FRatio; i <= FEncodingLevels; i++ {
		onlyStatic[i] = 1
	}
	onlyStatic[FOutJSProc] = 1
	onlyStatic[FOutJSInject] = 1
	if onlyStatic.Malscore(DefaultW1, DefaultW2) >= DefaultThreshold {
		t.Error("static+outJS without in-JS must stay below threshold")
	}
}

// harness wires a detector with a registered fake document.
type harness struct {
	t        *testing.T
	det      *Detector
	reg      *instrument.Registry
	osState  *winos.OS
	client   *hook.DirectSink
	soap     *soapsrv.Direct
	wireKey  string
	instrKey string
}

func newHarness(t *testing.T, static [5]int) *harness {
	t.Helper()
	reg := instrument.NewRegistry("det01")
	rec := instrument.DocRecord{
		DocID:        "sample.pdf",
		InstrKey:     "key123",
		StaticVector: static,
	}
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	osState := winos.NewOS()
	det, err := New(Config{Registry: reg, OS: osState})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:        t,
		det:      det,
		reg:      reg,
		osState:  osState,
		client:   hook.NewDirectSink(det.Event),
		soap:     soapsrv.NewDirect(det.Notify),
		wireKey:  "det01:key123",
		instrKey: "key123",
	}
}

func (h *harness) enter(mem float64) {
	h.t.Helper()
	h.api("ctx.mem", mem)
	if _, err := h.soap.Send(soapsrv.Notify{Event: soapsrv.EventEnter, Key: h.wireKey, Seq: 1, PID: 1}); err != nil {
		h.t.Fatalf("enter: %v", err)
	}
}

func (h *harness) exit(mem float64) {
	h.t.Helper()
	h.api("ctx.mem", mem)
	if _, err := h.soap.Send(soapsrv.Notify{Event: soapsrv.EventExit, Key: h.wireKey, Seq: 1, PID: 1}); err != nil {
		h.t.Fatalf("exit: %v", err)
	}
}

func (h *harness) api(name string, mem float64, args ...string) hook.Decision {
	h.t.Helper()
	dec, err := h.client.OnAPICall(hook.Event{PID: 1, API: name, Args: args, MemMB: mem})
	if err != nil {
		h.t.Fatalf("api %s: %v", name, err)
	}
	return dec
}

func TestDropAndExecuteInJSContextAlerts(t *testing.T) {
	h := newHarness(t, [5]int{})
	h.osState.WriteFile(`C:\tmp\mal.exe`, []byte("MZ"))

	h.enter(50)
	dec := h.api("NtCreateFile", 52, `C:\tmp\mal.exe`)
	if dec.Action != hook.ActionAllow {
		t.Errorf("pre-alert drop should be allowed, got %v", dec)
	}
	dec = h.api("NtCreateProcess", 52, `C:\tmp\mal.exe`)
	if dec.Action != hook.ActionSandbox {
		t.Errorf("process creation should be sandboxed, got %v", dec)
	}
	h.exit(52)

	alerts := h.det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	a := alerts[0]
	if a.DocID != "sample.pdf" || a.Reason != "malscore" {
		t.Errorf("alert = %+v", a)
	}
	if a.Malscore < DefaultThreshold {
		t.Errorf("malscore = %d", a.Malscore)
	}
	if a.Features[FDropping] != 1 || a.Features[FProcCreate] != 1 {
		t.Errorf("features = %v", a.Features)
	}
	// Confinement: dropped file quarantined, sandboxed process terminated.
	if h.osState.FileExists(`C:\tmp\mal.exe`) {
		t.Error("dropped file not isolated on alert")
	}
	if h.det.Sandbox().Running() != 0 {
		t.Error("sandboxed process still running after alert")
	}
	if !h.det.IsMalicious("sample.pdf") {
		t.Error("IsMalicious false")
	}
}

func TestMemoryFeatureWithStaticAlerts(t *testing.T) {
	// One static feature + heap-spray memory growth = 10 = threshold.
	h := newHarness(t, [5]int{1, 0, 0, 0, 0})
	h.enter(60)
	h.api("ctx.mem", 400) // spray grows memory by 340 MB in JS context
	if len(h.det.Alerts()) != 1 {
		t.Fatalf("alerts = %d, want 1 (spray + ratio)", len(h.det.Alerts()))
	}
	a := h.det.Alerts()[0]
	if a.Features[FMemory] != 1 || a.Features[FRatio] != 1 {
		t.Errorf("features = %v", a.Features)
	}
}

func TestMemoryAloneStaysBelow(t *testing.T) {
	h := newHarness(t, [5]int{})
	h.enter(60)
	h.exit(400)
	if len(h.det.Alerts()) != 0 {
		t.Fatalf("single in-JS feature alone should not alert: %+v", h.det.Alerts())
	}
	st, ok := h.det.DocStateFor(h.instrKey)
	if !ok {
		t.Fatal("doc state missing")
	}
	if st.Features[FMemory] != 1 || !st.Armed {
		t.Errorf("state = %+v", st)
	}
}

func TestOutJSCountsOnlyWhenArmed(t *testing.T) {
	h := newHarness(t, [5]int{})
	// Out-JS process creation BEFORE any in-JS op: ignored for scoring.
	h.api("NtCreateProcess", 55, `C:\evil\loader.exe`)
	st, _ := h.det.DocStateFor(h.instrKey)
	if st.Features[FOutJSProc] != 0 {
		t.Error("out-JS op counted before arming")
	}
	// Arm via in-JS memory, exit, then out-JS exploit (Flash/CoolType
	// pattern): F8 (9) + F6 (1) = 10 -> alert.
	h.enter(50)
	h.api("ctx.mem", 300)
	h.exit(300)
	h.api("NtCreateProcess", 300, `C:\evil\stage2.exe`)
	alerts := h.det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Features[FOutJSProc] != 1 || alerts[0].Features[FMemory] != 1 {
		t.Errorf("features = %v", alerts[0].Features)
	}
}

func TestWhitelistedProcessIgnored(t *testing.T) {
	h := newHarness(t, [5]int{1, 1, 1, 1, 1})
	h.enter(50)
	h.api("ctx.mem", 300) // arm with F8
	dec := h.api("NtCreateProcess", 300, `C:\Windows\System32\WerFault.exe`)
	if dec.Action != hook.ActionAllow {
		t.Errorf("whitelisted spawn = %v", dec)
	}
	st, _ := h.det.DocStateFor(h.instrKey)
	if st.Features[FProcCreate] != 0 {
		t.Error("whitelisted spawn counted as feature")
	}
}

func TestDLLInjectionAlwaysRejected(t *testing.T) {
	h := newHarness(t, [5]int{})
	h.osState.WriteFile(`C:\tmp\evil.dll`, []byte("MZ"))
	dec := h.api("CreateRemoteThread", 50, `C:\tmp\evil.dll`)
	if dec.Action != hook.ActionReject {
		t.Errorf("injection decision = %v", dec)
	}
	if h.osState.FileExists(`C:\tmp\evil.dll`) {
		t.Error("injected DLL not isolated")
	}
}

func TestFakeMessageZeroTolerance(t *testing.T) {
	h := newHarness(t, [5]int{})
	// Attacker (inside the active document) sends a forged exit with a
	// wrong key, trying to mimic the epilogue.
	h.enter(50)
	if _, err := h.soap.Send(soapsrv.Notify{Event: soapsrv.EventExit, Key: "det01:stolenkey", Seq: 9, PID: 1}); err == nil {
		t.Error("forged message should produce a SOAP fault")
	}
	alerts := h.det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Reason != "fake-message" {
		t.Errorf("reason = %q", alerts[0].Reason)
	}
	if alerts[0].DocID != "sample.pdf" {
		t.Errorf("fake message should blame the active document, got %q", alerts[0].DocID)
	}
}

func TestFakeMessageForeignDetectorID(t *testing.T) {
	h := newHarness(t, [5]int{})
	if _, err := h.soap.Send(soapsrv.Notify{Event: soapsrv.EventEnter, Key: "otherdet:key123", Seq: 1, PID: 1}); err == nil {
		t.Error("foreign detector id should fault")
	}
	if len(h.det.Alerts()) != 1 {
		t.Fatalf("alerts = %d", len(h.det.Alerts()))
	}
}

func TestMultiDocCooperation(t *testing.T) {
	reg := instrument.NewRegistry("det01")
	for _, k := range []string{"keyA", "keyB"} {
		if err := reg.Register(instrument.DocRecord{DocID: "doc-" + k, InstrKey: k}); err != nil {
			t.Fatal(err)
		}
	}
	osState := winos.NewOS()
	det, err := New(Config{Registry: reg, OS: osState})
	if err != nil {
		t.Fatal(err)
	}
	client := hook.NewDirectSink(det.Event)
	soap := soapsrv.NewDirect(det.Notify)

	send := func(ev, key string) {
		t.Helper()
		if _, err := soap.Send(soapsrv.Notify{Event: ev, Key: key, Seq: 1, PID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	api := func(name string, args ...string) {
		t.Helper()
		if _, err := client.OnAPICall(hook.Event{PID: 1, API: name, Args: args, MemMB: 50}); err != nil {
			t.Fatal(err)
		}
	}

	// Doc A downloads an executable in its JS context (stealthy: only one
	// op, below threshold).
	send("enter", "det01:keyA")
	api("URLDownloadToFileA", "http://evil.test/a.exe", `C:\tmp\shared.exe`)
	send("exit", "det01:keyA")
	if det.Downloads().Len() != 1 {
		t.Fatalf("downloads list = %d", det.Downloads().Len())
	}

	// Doc B executes it in B's JS context: the detector imputes dropping
	// to B and execution to A, linking the pair.
	send("enter", "det01:keyB")
	api("NtCreateProcess", `C:\tmp\shared.exe`)
	send("exit", "det01:keyB")

	stB, _ := det.DocStateFor("keyB")
	if stB.Features[FProcCreate] != 1 || stB.Features[FDropping] != 1 {
		t.Errorf("doc B features = %v", stB.Features)
	}
	stA, _ := det.DocStateFor("keyA")
	if stA.Features[FDropping] != 1 || stA.Features[FProcCreate] != 1 {
		t.Errorf("doc A features = %v", stA.Features)
	}
	// Both should alert (two in-JS features each = 18).
	if len(det.Alerts()) != 2 {
		t.Errorf("alerts = %d, want 2: %+v", len(det.Alerts()), det.Alerts())
	}
}

func TestForgetDocVolatileMalscore(t *testing.T) {
	h := newHarness(t, [5]int{})
	h.enter(50)
	h.exit(400)
	if _, ok := h.det.DocStateFor(h.instrKey); !ok {
		t.Fatal("state should exist")
	}
	h.det.ForgetDoc(h.instrKey)
	if _, ok := h.det.DocStateFor(h.instrKey); ok {
		t.Error("state should be volatile")
	}
	// The downloads list is persistent and unaffected by ForgetDoc.
}

func TestNetworkAccessFeature(t *testing.T) {
	h := newHarness(t, [5]int{})
	h.enter(50)
	h.api("connect", 51, "c2.example.test:443")
	st, _ := h.det.DocStateFor(h.instrKey)
	if st.Features[FNetwork] != 1 {
		t.Error("network feature not set")
	}
	// Detector's own channel is whitelisted.
	h.api("connect", 51, instrument.DefaultEndpointAddr)
	st, _ = h.det.DocStateFor(h.instrKey)
	if len(st.Ops) != 1 {
		t.Errorf("whitelisted connect recorded: %v", st.Ops)
	}
}

func TestMemSearchFeature(t *testing.T) {
	h := newHarness(t, [5]int{1, 0, 0, 0, 0})
	h.enter(50)
	h.api("IsBadReadPtr", 51, "0x00400000")
	alerts := h.det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d (memsearch 9 + ratio 1 = 10)", len(alerts))
	}
	if alerts[0].Features[FMemSearch] != 1 {
		t.Errorf("features = %v", alerts[0].Features)
	}
}

func TestMemoryExactlyAtThreshold(t *testing.T) {
	h := newHarness(t, [5]int{1, 0, 0, 0, 0})
	h.enter(50)
	h.api("ctx.mem", 150) // delta exactly 100 MB
	st, _ := h.det.DocStateFor(h.instrKey)
	if st.Features[FMemory] != 1 {
		t.Error("delta == threshold should set F8")
	}
	h2 := newHarness(t, [5]int{1, 0, 0, 0, 0})
	h2.enter(50)
	h2.api("ctx.mem", 149.9)
	st, _ = h2.det.DocStateFor(h2.instrKey)
	if st.Features[FMemory] != 0 {
		t.Error("delta below threshold set F8")
	}
}

func TestExitClearsActiveContext(t *testing.T) {
	h := newHarness(t, [5]int{})
	h.enter(50)
	h.api("ctx.mem", 300) // arm
	h.exit(300)
	// After exit, a drop is out-of-JS and not a drop feature.
	h.api("NtCreateFile", 300, `C:\cache\render.tmp`)
	st, _ := h.det.DocStateFor(h.instrKey)
	if st.Features[FDropping] != 0 {
		t.Error("out-of-context drop counted as in-JS dropping")
	}
}

func TestSecondEnterReusesState(t *testing.T) {
	// A document with several scripts enters and exits repeatedly; the
	// malscore accumulates across contexts within one reader session.
	h := newHarness(t, [5]int{})
	h.enter(50)
	h.api("connect", 52, "c2.test:443")
	h.exit(52)
	h.enter(52)
	h.api("NtCreateFile", 53, `C:\tmp\m.exe`)
	h.exit(53)
	alerts := h.det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d (network 9 + drop 9 = 18 across contexts)", len(alerts))
	}
	if alerts[0].Features[FNetwork] != 1 || alerts[0].Features[FDropping] != 1 {
		t.Errorf("features = %v", alerts[0].Features)
	}
}

func TestDownloadsListOnlyExecutables(t *testing.T) {
	h := newHarness(t, [5]int{})
	h.enter(50)
	h.api("NtCreateFile", 52, `C:\tmp\notes.txt`)
	if h.det.Downloads().Len() != 0 {
		t.Error("non-executable tracked in downloads list")
	}
	h.api("URLDownloadToFileA", 52, "http://x.test/a.exe", `C:\tmp\a.exe`)
	if h.det.Downloads().Len() != 1 {
		t.Error("executable download not tracked")
	}
}

// TestAlertHistoryIsBoundedRing: past AlertHistory alerts the oldest are
// overwritten, Alerts stays oldest-first, and IsMalicious sees exactly
// the retained window.
func TestAlertHistoryIsBoundedRing(t *testing.T) {
	reg := instrument.NewRegistry("det")
	det, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10
	for i := 0; i < AlertHistory+extra; i++ {
		key := fmt.Sprintf("k%03d", i)
		if err := reg.Register(instrument.DocRecord{DocID: fmt.Sprintf("doc-%03d", i), InstrKey: key}); err != nil {
			t.Fatal(err)
		}
		// A foreign detector ID claiming a known key is a fake message
		// that convicts the key's document: one alert per iteration.
		_ = det.Notify(soapsrv.Notify{Event: soapsrv.EventEnter, Key: "other:" + key, PID: 1}, "test")
		det.ForgetDoc(key)
	}
	alerts := det.Alerts()
	if len(alerts) != AlertHistory {
		t.Fatalf("alerts = %d, want %d", len(alerts), AlertHistory)
	}
	for i, a := range alerts {
		if want := fmt.Sprintf("doc-%03d", i+extra); a.DocID != want {
			t.Fatalf("alert %d names %s, want %s (oldest first)", i, a.DocID, want)
		}
	}
	if det.IsMalicious("doc-000") {
		t.Error("an overwritten alert still convicts")
	}
	if !det.IsMalicious(fmt.Sprintf("doc-%03d", AlertHistory+extra-1)) {
		t.Error("the newest alert is missing")
	}
}

// TestReapedProcessForgetsMemorySample: reaping a reader PID in the fake
// OS drops the detector's per-PID memory sample.
func TestReapedProcessForgetsMemorySample(t *testing.T) {
	osState := winos.NewOS()
	det, err := New(Config{Registry: instrument.NewRegistry("det"), OS: osState})
	if err != nil {
		t.Fatal(err)
	}
	pid := osState.Spawn("reader.exe", 0, false)
	det.Event(hook.Event{PID: pid, API: "ctx.mem", MemMB: 40})
	if n := det.ProcessStates(); n != 1 {
		t.Fatalf("process states = %d, want 1", n)
	}
	osState.Reap(pid)
	if n := det.ProcessStates(); n != 0 {
		t.Errorf("process states after reap = %d, want 0", n)
	}
}
