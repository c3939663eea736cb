package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"pdfshield/internal/attack"
	"pdfshield/internal/corpus"
	"pdfshield/internal/detect"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/winos"
)

// depthSystem builds a system pinned to one scan depth on a private
// registry.
func depthSystem(t *testing.T, d Depth, j *journal.Writer) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		ViewerVersion: 8.0,
		Seed:          1213,
		Obs:           obs.NewRegistry(),
		Journal:       j,
		Depth:         d,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

// TestEvasiveMissedStandardCaughtDeep pins the tentpole's reason to
// exist: every gated payload (time bomb, locale fingerprint, emulation
// check) does nothing observable on a natural open and is classified
// benign at DepthStandard, and the SAME bytes are convicted at
// DepthDeep, where forced execution explores the closed arm of the gate.
func TestEvasiveMissedStandardCaughtDeep(t *testing.T) {
	std := depthSystem(t, DepthStandard, nil)
	deep := depthSystem(t, DepthDeep, nil)
	for i, kind := range attack.EvasiveKinds() {
		s, ok := attack.EvasiveSample(kind, int64(100+i))
		if !ok {
			t.Fatalf("unknown evasive kind %s", kind)
		}
		vs, err := std.ProcessDocumentContext(t.Context(), s.ID+"-std", s.Raw)
		if err != nil {
			t.Fatalf("%s standard: %v", kind, err)
		}
		if vs.Malicious {
			t.Errorf("%s: detected at DepthStandard — the gate is not evasive, the regression test proves nothing", kind)
		}
		if vs.Depth != string(DepthStandard) {
			t.Errorf("%s: standard verdict depth = %q", kind, vs.Depth)
		}

		vd, err := deep.ProcessDocumentContext(t.Context(), s.ID+"-deep", s.Raw)
		if err != nil {
			t.Fatalf("%s deep: %v", kind, err)
		}
		if !vd.Malicious {
			t.Errorf("%s: MISSED at DepthDeep — forced execution failed to detonate the gate", kind)
		}
		if vd.Depth != string(DepthDeep) {
			t.Errorf("%s: deep verdict depth = %q", kind, vd.Depth)
		}
		if vd.Open == nil || vd.Open.DeepPaths < 2 {
			t.Errorf("%s: deep open explored %d paths, want >= 2", kind, openPaths(vd))
		}
	}
}

func openPaths(v *Verdict) int {
	if v == nil || v.Open == nil {
		return 0
	}
	return v.Open.DeepPaths
}

// TestDeepScanNoBenignFalsePositives: forcing both arms of benign form,
// navigation, heavy-report and SOAP scripts must not fabricate alerts —
// feature union across paths only ever unions behaviour the script
// actually contains.
func TestDeepScanNoBenignFalsePositives(t *testing.T) {
	g := corpus.NewGenerator(77)
	var docs []BatchDoc
	for _, s := range g.BenignWithJS(24) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	deep := depthSystem(t, DepthDeep, nil)
	res := deep.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 2})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d benign documents failed: %v", n, res.Errors)
	}
	for i, v := range res.Verdicts {
		if v.Malicious {
			t.Errorf("benign %s convicted at DepthDeep (alert: %+v)", docs[i].ID, v.Alert)
		}
	}
}

// TestDeepEqualsStandardOnStraightLine pins the union semantics: on a
// branch-free exploit forced execution degenerates to the natural single
// run, so DepthDeep must reproduce DepthStandard's verdict, malscore and
// feature vector exactly — no double-counted features from path replay.
func TestDeepEqualsStandardOnStraightLine(t *testing.T) {
	g := corpus.NewGenerator(31)
	s, ok := g.MaliciousFamily("mal-printf")
	if !ok {
		t.Fatal("mal-printf missing")
	}
	std := depthSystem(t, DepthStandard, nil)
	deep := depthSystem(t, DepthDeep, nil)
	vs, err := std.ProcessDocumentContext(t.Context(), "straight-std", s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := deep.ProcessDocumentContext(t.Context(), "straight-deep", s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !vs.Malicious || !vd.Malicious {
		t.Fatalf("exploit not detected (std=%v deep=%v)", vs.Malicious, vd.Malicious)
	}
	if vs.FeatureVector != vd.FeatureVector {
		t.Errorf("feature vectors diverge:\n std=%v\ndeep=%v", vs.FeatureVector, vd.FeatureVector)
	}
	if vs.Alert.Malscore != vd.Alert.Malscore {
		t.Errorf("malscore: std=%d deep=%d", vs.Alert.Malscore, vd.Alert.Malscore)
	}
}

// TestDepthStaticNeverOpens: DepthStatic judges everything on triage
// evidence — including uncertain documents — and never creates a reader.
func TestDepthStaticNeverOpens(t *testing.T) {
	g := corpus.NewGenerator(55)
	var docs []BatchDoc
	for _, s := range g.MaliciousBatch(4) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	for _, s := range g.BenignWithJS(4) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	sys := depthSystem(t, DepthStatic, nil)
	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d documents failed: %v", n, res.Errors)
	}
	for i, v := range res.Verdicts {
		if v.Open != nil {
			t.Errorf("%s: DepthStatic opened a reader", docs[i].ID)
		}
		if v.TriageRoute == "" {
			t.Errorf("%s: DepthStatic verdict carries no triage route", docs[i].ID)
		}
		if v.Depth != string(DepthStatic) {
			t.Errorf("%s: verdict depth = %q", docs[i].ID, v.Depth)
		}
	}
}

// TestDepthAutoEscalatesUncertainToDeep: at DepthAuto a confidently
// routed document never opens, while an uncertain one goes straight to a
// forced-execution open.
func TestDepthAutoEscalatesUncertainToDeep(t *testing.T) {
	sys := depthSystem(t, DepthAuto, nil)
	g := corpus.NewGenerator(91)
	var uncertainSeen, routedSeen, deepOpens int
	docs := append(g.MaliciousBatch(6), g.BenignWithJS(6)...)
	// A SOAP.request script stays uncertain (a network API the abstract
	// interpreter cannot vet), so the uncertain lane always runs.
	docs = append(docs, g.BenignSOAPJS())
	for _, s := range docs {
		v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if v.Depth != string(DepthAuto) {
			t.Errorf("%s: verdict depth = %q, want auto", s.ID, v.Depth)
		}
		switch v.TriageRoute {
		case "uncertain":
			uncertainSeen++
			if v.Open == nil {
				t.Errorf("%s: uncertain route produced no open", s.ID)
			} else if v.Open.DeepPaths == 0 {
				t.Errorf("%s: uncertain open was not deep-scanned", s.ID)
			} else {
				deepOpens++
			}
		case "benign", "malicious":
			routedSeen++
			if v.Open != nil {
				t.Errorf("%s: confidently routed document opened a reader", s.ID)
			}
		case "":
			t.Errorf("%s: no triage route at DepthAuto", s.ID)
		}
	}
	if uncertainSeen == 0 || routedSeen == 0 {
		t.Fatalf("mix did not exercise both lanes (uncertain=%d routed=%d); pick new seeds", uncertainSeen, routedSeen)
	}
	if deepOpens == 0 {
		t.Fatal("no uncertain document was deep-scanned")
	}
}

// TestDeepScanTelemetry: a deep batch publishes the path counter, the
// per-open histogram and a TypeDeepScan journal event per dynamic open.
func TestDeepScanTelemetry(t *testing.T) {
	var buf bytes.Buffer
	j := journal.NewWriter(&buf, journal.Options{Session: "deep"})
	sys := depthSystem(t, DepthDeep, j)
	s, ok := attack.EvasiveSample("mal-timebomb", 7)
	if !ok {
		t.Fatal("mal-timebomb missing")
	}
	if _, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw); err != nil {
		t.Fatal(err)
	}
	snap := sys.Obs.Snapshot()
	if snap.Counters[obs.MetricDeepScanPaths] < 2 {
		t.Errorf("%s = %d, want >= 2", obs.MetricDeepScanPaths, snap.Counters[obs.MetricDeepScanPaths])
	}
	if h, ok := snap.Histograms[obs.MetricDeepScanSeconds]; !ok || h.Count == 0 {
		t.Errorf("%s histogram empty", obs.MetricDeepScanSeconds)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var deepEvents int
	for _, e := range events {
		if e.T == journal.TypeDeepScan {
			deepEvents++
			if e.DeepScan == nil || e.DeepScan.Paths < 2 {
				t.Errorf("deepscan event payload = %+v, want >= 2 paths", e.DeepScan)
			}
		}
	}
	if deepEvents == 0 {
		t.Error("no TypeDeepScan event journaled")
	}
}

// TestDeepReplayDeterminism is the satellite's replay pin: a deep-scan
// batch at width > 1 — evasive gates, working exploits and benign JS all
// force-executed — records a journal whose canonical stream replays
// byte-identically through a fresh detector, deep-scan events riding
// along as non-canonical context.
func TestDeepReplayDeterminism(t *testing.T) {
	var recBuf bytes.Buffer
	rec := journal.NewWriter(&recBuf, journal.Options{Session: "deep-live"})
	sys := depthSystem(t, DepthDeep, rec)

	g := corpus.NewGenerator(499)
	var docs []BatchDoc
	for i, kind := range attack.EvasiveKinds() {
		s, ok := attack.EvasiveSample(kind, int64(500+i))
		if !ok {
			t.Fatalf("unknown evasive kind %s", kind)
		}
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	for _, s := range g.MaliciousBatch(3) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	for _, s := range g.BenignWithJS(3) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}

	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 3})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d documents failed: %v", n, res.Errors)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	recorded, err := journal.Read(&recBuf)
	if err != nil {
		t.Fatal(err)
	}
	var deepEvents int
	for _, e := range recorded {
		if e.T == journal.TypeDeepScan {
			deepEvents++
		}
	}
	if want := len(docs); deepEvents != want {
		t.Fatalf("deepscan events = %d, want one per open (%d)", deepEvents, want)
	}

	var repBuf bytes.Buffer
	rep := journal.NewWriter(&repBuf, journal.Options{Session: "deep-replay"})
	_, stats, err := detect.Replay(recorded, detect.Config{
		OS:      winos.NewOS(),
		Obs:     obs.NewRegistry(),
		Journal: rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hooks == 0 {
		t.Fatalf("replay fed nothing: %+v", stats)
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed, err := journal.Read(&repBuf)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := journal.Diff(recorded, replayed); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("deep-scan replay diverged in %d place(s)", len(diffs))
	}
}

// TestBatchRunsSystemDepth: a batch scans at the system's depth, the one
// depth knob, so a deep System's batch convicts a gated payload at deep.
func TestBatchRunsSystemDepth(t *testing.T) {
	sys := depthSystem(t, DepthDeep, nil)
	s, ok := attack.EvasiveSample("mal-envgate", 11)
	if !ok {
		t.Fatal("mal-envgate missing")
	}
	res := sys.ProcessBatchContext(t.Context(), []BatchDoc{{ID: s.ID, Raw: s.Raw}}, BatchOptions{})
	if res.Failed() != 0 {
		t.Fatalf("deep batch failed: %v", res.Errors)
	}
	if v := res.Verdicts[0]; !v.Malicious || v.Depth != string(DepthDeep) {
		t.Errorf("verdict: malicious=%v depth=%q, want convicted at deep", v.Malicious, v.Depth)
	}
}

// TestDepthValidation: NewSystem rejects unknown depths; ParseDepth
// round-trips the four names and the unset empty string.
func TestDepthValidation(t *testing.T) {
	if _, err := NewSystem(Options{Obs: obs.NewRegistry(), Depth: Depth("bogus")}); err == nil {
		t.Fatal("NewSystem accepted an unknown depth")
	}
	for _, name := range []string{"", "static", "standard", "deep", "auto"} {
		d, err := ParseDepth(name)
		if err != nil {
			t.Fatalf("ParseDepth(%q): %v", name, err)
		}
		if string(d) != name {
			t.Fatalf("ParseDepth(%q) = %q", name, d)
		}
	}
	if _, err := ParseDepth("shallow"); err == nil {
		t.Fatal("ParseDepth accepted an unknown name")
	}
	if got := fmt.Stringer(DepthDeep).String(); got != "deep" {
		t.Fatalf("DepthDeep.String() = %q", got)
	}
}

// TestNoJavaScriptVerdictCarriesDepth pins that the scriptless fast
// path (no chains, no open at any depth) still stamps the resolved
// depth on the verdict: every verdict a depth-pinned system produces
// must answer "which depth was this", including the ones that never
// reached a reader session.
func TestNoJavaScriptVerdictCarriesDepth(t *testing.T) {
	s := corpus.NewGenerator(7).BenignText(4 << 10)
	sys := depthSystem(t, DepthDeep, nil)
	v, err := sys.ProcessDocumentContext(t.Context(), s.ID, s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.NoJavaScript {
		t.Fatalf("benign text sample unexpectedly has Javascript")
	}
	if v.Depth != string(DepthDeep) {
		t.Fatalf("NoJavaScript verdict depth = %q, want %q", v.Depth, DepthDeep)
	}
}
